//! [`CtMat`] — the paper's *CryptoTensor*: a matrix of Paillier
//! ciphertexts with dense and sparse homomorphic kernels.
//!
//! Ciphertexts are stored flat in Montgomery form (`k` limbs each), so
//! homomorphic addition is one `mont_mul`. Fresh encryptions, `add`,
//! `add_plain` and `rows_add_assign` fill their output in groups of
//! eight ciphertexts, a parallel item per group; a pooled encryption's,
//! an `add_plain`'s and a sum's products run as one
//! [`bf_bigint::MontCtx::mont_mul_many`] per group and modulus, one lane
//! multiply on CPUs with AVX-512 IFMA. A Paillier matrix has one
//! body in one of two lane layouts (`LaneLayout`): one value per
//! ciphertext, or one slot-packed column chunk per ciphertext
//! ([`crate::pack`]). Kernels work on *lanes*, the ciphertexts of a row,
//! and ask the layout how many a row has, which columns each covers and
//! how its values are encoded and decrypted — so every kernel has one
//! Paillier arm. Only `transpose` and `matmul_ct_wt`, which move values
//! across the axis slots run along, refuse a packed body.
//!
//! Every plain×cipher product (`X·⟦W⟧`, `Xᵀ·⟦G⟧`, `⟦G⟧·Wᵀ`) is a matrix
//! of multi-exponentiations `Π_t ⟦c_t⟧^{e_t}` evaluated by one core,
//! `contract`. Per output it multiplies together the ciphertexts that
//! share a fixed-point exponent and raises the product once — a one-hot
//! or indicator row is `nnz − 1` multiplies and its share of the
//! `2^frac_bits` power, which the call pays once per source and lane
//! when it has fewer sources than outputs, and else in each output's
//! chain (`frac_bits` squarings); [`PublicKey::folded_product`] pays
//! an integer product's power after its fold, on `slots`-fold fewer
//! ciphertexts — and runs the exponents that remain along one shared
//! squaring chain
//! ([`bf_bigint::MontCtx::multi_pow_into`]); a call's products are one
//! [`bf_bigint::MontCtx::multi_pow_many`] per lane of the output rows,
//! which on CPUs with AVX-512 IFMA runs eight rows to one chain, a row
//! per vector lane, the groups in parallel. Negative scalars accumulate
//! apart from positive ones and are resolved by a single modular
//! inversion per kernel call (Montgomery's trick), never a full-width
//! exponentiation per entry; a ciphertext that is not a unit mod `n²`
//! (no encryption is, but a peer can send one) makes that inversion a
//! [`NonUnit`] error.
//! The decrypt-only repack
//! ([`PublicKey::repack`]) does not use it: folding `slots` one-value
//! lanes — or `⌊slots/u⌋` packed rows of `u` slots — into one is a
//! Horner chain of shift `u·slot_bits` per output,
//! [`bf_bigint::MontCtx::fold_many`], eight outputs to a lane group.

use bf_bigint::mont::{LaneTerm, LANES};
use bf_bigint::BigUint;
use bf_tensor::{CatBlock, Dense, Features};
use bf_util::par::FINE;
use bf_util::{par_for_each_mut, par_for_each_mut_min, par_map};

use crate::codec::{self, SignedInt};
use crate::keys::{PaillierPk, PublicKey, SecretKey};
use crate::obf::Obfuscator;
use crate::pack::{LaneLayout, PaillierMode, SlotLayout};

/// A matrix of ciphertexts (or the Plain backend's `f64`s).
#[derive(Clone, Debug, PartialEq)]
pub struct CtMat {
    rows: usize,
    cols: usize,
    /// Fixed-point scale in multiples of `frac_bits` (1 = fresh
    /// encryption, 2 = plain×cipher product).
    scale: u8,
    body: Body,
}

#[derive(Clone, Debug, PartialEq)]
enum Body {
    /// Flat row-major Montgomery-form limbs: `lanes.per_row(cols)`
    /// ciphertexts per row, `k` limbs each.
    Paillier {
        k: usize,
        lanes: LaneLayout,
        limbs: Vec<u64>,
    },
    /// Plain backend.
    Plain(Vec<f64>),
}

impl Body {
    /// Limb width and lane layout of a Paillier body; `None` for Plain.
    fn paillier(&self) -> Option<(usize, LaneLayout)> {
        match self {
            Body::Paillier { k, lanes, .. } => Some((*k, *lanes)),
            Body::Plain(_) => None,
        }
    }

    /// A Paillier body of this one's limb width and lane layout over
    /// `limbs`.
    fn with_limbs(&self, limbs: Vec<u64>) -> Body {
        let (k, lanes) = self.paillier().expect("no ciphertexts in a Plain matrix");
        Body::Paillier { k, lanes, limbs }
    }

    /// Entries (limbs, or values) per row of a `cols`-column matrix.
    fn row_len(&self, cols: usize) -> usize {
        match self {
            Body::Paillier { k, lanes, .. } => lanes.per_row(cols) * k,
            Body::Plain(_) => cols,
        }
    }

    /// The same kind of body over `n` of this one's rows (each `cols`
    /// columns wide), in the order `rows` names them.
    fn gather(&self, cols: usize, n: usize, rows: impl Iterator<Item = usize>) -> Body {
        fn take<T: Copy>(
            v: &[T],
            stride: usize,
            n: usize,
            rows: impl Iterator<Item = usize>,
        ) -> Vec<T> {
            let mut out = Vec::with_capacity(n * stride);
            for r in rows {
                out.extend_from_slice(&v[r * stride..(r + 1) * stride]);
            }
            out
        }
        let stride = self.row_len(cols);
        match self {
            Body::Paillier { limbs, .. } => self.with_limbs(take(limbs, stride, n, rows)),
            Body::Plain(v) => Body::Plain(take(v, stride, n, rows)),
        }
    }
}

/// Borrowed view of a [`CtMat`] body used by the byte codec in
/// [`crate::serial`]. Crate-internal: the wire layout is owned by
/// `serial`, the in-memory layout by this module.
pub(crate) enum BodyView<'a> {
    /// Montgomery-form limbs, `k` per ciphertext, in lane layout `lanes`.
    Paillier {
        /// Limbs per ciphertext.
        k: usize,
        /// Lane layout.
        lanes: LaneLayout,
        /// Flat row-major limb buffer.
        limbs: &'a [u64],
    },
    /// Plain-backend values.
    Plain(&'a [f64]),
}

/// The ciphertexts of a Paillier body by `(row, lane)`, with the lanes
/// per row computed once per kernel call rather than per ciphertext.
#[derive(Clone, Copy)]
struct Cts<'a> {
    limbs: &'a [u64],
    k: usize,
    /// Lanes per row.
    lanes: usize,
}

impl<'a> Cts<'a> {
    /// Montgomery limbs of the `i`-th ciphertext in row-major order.
    fn nth(&self, i: usize) -> &'a [u64] {
        &self.limbs[i * self.k..][..self.k]
    }

    /// Montgomery limbs of the ciphertext at row `i`, lane `l`.
    fn at(&self, i: usize, l: usize) -> &'a [u64] {
        self.nth(i * self.lanes + l)
    }
}

impl CtMat {
    /// Borrow the body for serialization.
    pub(crate) fn body_view(&self) -> BodyView<'_> {
        match &self.body {
            Body::Paillier { k, lanes, limbs } => BodyView::Paillier {
                k: *k,
                lanes: *lanes,
                limbs,
            },
            Body::Plain(v) => BodyView::Plain(v),
        }
    }

    /// Rebuild a Paillier matrix from deserialized parts. The codec has
    /// already validated the lane geometry and the limb count.
    pub(crate) fn from_paillier_parts(
        rows: usize,
        cols: usize,
        scale: u8,
        k: usize,
        lanes: LaneLayout,
        limbs: Vec<u64>,
    ) -> CtMat {
        debug_assert_eq!(limbs.len(), rows * lanes.per_row(cols) * k);
        CtMat {
            rows,
            cols,
            scale,
            body: Body::Paillier { k, lanes, limbs },
        }
    }

    /// Rebuild a Plain-backend matrix from deserialized parts.
    pub(crate) fn from_plain_parts(rows: usize, cols: usize, scale: u8, vals: Vec<f64>) -> CtMat {
        debug_assert_eq!(vals.len(), rows * cols);
        CtMat {
            rows,
            cols,
            scale,
            body: Body::Plain(vals),
        }
    }
}

impl CtMat {
    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Fixed-point scale multiplier (1 or 2).
    pub fn scale(&self) -> u8 {
        self.scale
    }

    /// Serialized size in bytes (for transport accounting).
    pub fn wire_size(&self) -> usize {
        16 + match &self.body {
            Body::Paillier { lanes, limbs, .. } => lanes.header_bytes() + limbs.len() * 8,
            Body::Plain(v) => v.len() * 8,
        }
    }

    /// True if this is a Plain-backend matrix.
    pub fn is_plain(&self) -> bool {
        matches!(self.body, Body::Plain(_))
    }

    /// True if this matrix uses the slot-packed lane layout.
    pub fn is_packed(&self) -> bool {
        matches!(&self.body, Body::Paillier { lanes, .. } if lanes.is_packed())
    }

    /// True if `other`'s rows can be added into this matrix's rows
    /// ciphertext by ciphertext: same width, fixed-point scale, backend,
    /// limb count and lane layout — everything
    /// [`PublicKey::rows_add_assign`] asserts except the row count, so a
    /// receiver can refuse a peer's delta instead of panicking on it.
    pub fn rows_conform(&self, other: &CtMat) -> bool {
        self.cols == other.cols
            && self.scale == other.scale
            && self.body.paillier() == other.body.paillier()
    }

    /// The ciphertexts by `(row, lane)`.
    fn cts(&self) -> Cts<'_> {
        let Body::Paillier { k, lanes, limbs } = &self.body else {
            unreachable!("no ciphertexts in a Plain matrix")
        };
        Cts {
            limbs,
            k: *k,
            lanes: lanes.per_row(self.cols),
        }
    }

    /// A `rows × self.cols` matrix over `limbs` in this one's ciphertext
    /// layout (limb width, lane layout).
    fn like(&self, rows: usize, scale: u8, limbs: Vec<u64>) -> CtMat {
        CtMat {
            rows,
            cols: self.cols,
            scale,
            body: self.body.with_limbs(limbs),
        }
    }

    /// Transposed copy (pure index permutation — no homomorphic work).
    ///
    /// Panics on a packed matrix: slots run along the column axis, so a
    /// transpose would need to re-pack ciphertext contents. A kernel
    /// that needs `⟦W⟧ᵀ` packed asks the key owner for a second upload
    /// (`EmbedSource`'s `⟦V_Bᵀ⟧`) instead.
    pub fn transpose(&self) -> CtMat {
        assert!(
            !self.is_packed(),
            "transpose is unsupported for packed ciphertexts"
        );
        let (r, c) = (self.rows, self.cols);
        let body = match &self.body {
            Body::Paillier { k, limbs, .. } => {
                self.body.with_limbs(transpose_flat(limbs, r, c, *k))
            }
            Body::Plain(v) => Body::Plain(transpose_flat(v, r, c, 1)),
        };
        CtMat {
            rows: c,
            cols: r,
            scale: self.scale,
            body,
        }
    }

    /// Gather a subset of rows.
    pub fn select_rows(&self, rows: &[usize]) -> CtMat {
        CtMat {
            rows: rows.len(),
            cols: self.cols,
            scale: self.scale,
            body: self
                .body
                .gather(self.cols, rows.len(), rows.iter().copied()),
        }
    }
}

/// Quantise to `frac_bits` fractional bits (what encryption would do),
/// so the Plain backend reproduces fixed-point rounding.
fn quantize(v: f64, frac_bits: u32) -> f64 {
    let s = (frac_bits as f64).exp2();
    (v * s).round() / s
}

/// A plain×cipher product, named by its kernel and operands so that
/// [`PublicKey::product`] and [`PublicKey::folded_product`] choose where
/// its `2^frac_bits` power is paid.
#[derive(Clone, Copy, Debug)]
pub enum Product<'a> {
    /// `X·⟦W⟧` ([`PublicKey::matmul`]).
    MatMul {
        /// The plaintext features.
        x: &'a Features,
        /// The encrypted weights.
        w: &'a CtMat,
    },
    /// `Xᵀ·⟦G⟧` on `support` ([`PublicKey::t_matmul_support`]).
    TMatMulSupport {
        /// The plaintext features.
        x: &'a Features,
        /// The encrypted gradient.
        g: &'a CtMat,
        /// The feature rows to materialise.
        support: &'a [u32],
    },
}

impl<'a> Product<'a> {
    /// The encrypted operand, whose lane layout the product keeps.
    pub fn operand(&self) -> &'a CtMat {
        match *self {
            Product::MatMul { w, .. } => w,
            Product::TMatMulSupport { g, .. } => g,
        }
    }

    /// The product's `rows × cols`.
    pub fn shape(&self) -> (usize, usize) {
        match *self {
            Product::MatMul { x, w } => (x.rows(), w.cols),
            Product::TMatMulSupport { g, support, .. } => (support.len(), g.cols),
        }
    }
}

/// A product met a ciphertext that is not a unit mod `n²`, so its
/// negative terms have no inverse. No encryption is such a value; a
/// peer's bytes can be.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NonUnit;

impl std::fmt::Display for NonUnit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("a ciphertext that is not a unit mod n²")
    }
}

impl std::error::Error for NonUnit {}

impl PublicKey {
    /// Encrypt a dense matrix (scale 1).
    pub fn encrypt(&self, m: &Dense, obf: &Obfuscator) -> CtMat {
        self.encrypt_at_scale(m, 1, obf)
    }

    /// Encrypt selecting the ciphertext layout: `Scalar` is
    /// [`PublicKey::encrypt`]; `Packed` packs along the column axis as a
    /// single segment (`seg = cols`), falling back to one value per
    /// lane when the key or shape cannot pack (see [`crate::pack`]).
    pub fn encrypt_mode(&self, m: &Dense, mode: PaillierMode, obf: &Obfuscator) -> CtMat {
        self.encrypt_mode_seg(m, m.cols(), mode, obf)
    }

    /// [`PublicKey::encrypt_mode`] with an explicit segment width, for
    /// matrices whose consumers concatenate or gather column groups
    /// (embedding tables use `seg = dim`). `cols` must be a whole
    /// number of segments.
    pub fn encrypt_mode_seg(
        &self,
        m: &Dense,
        seg: usize,
        mode: PaillierMode,
        obf: &Obfuscator,
    ) -> CtMat {
        // Packing only pays off (and chunk maths only holds) for
        // ≥2-column segments tiling the matrix exactly. The decision
        // depends on shared configuration and shape only, so both
        // parties always agree on the layout.
        let lanes = match (mode, self.slot_layout()) {
            (PaillierMode::Packed, Some(layout)) if seg >= 2 && m.cols().is_multiple_of(seg) => {
                LaneLayout::Packed { layout, seg }
            }
            _ => LaneLayout::OnePerLane,
        };
        self.encrypt_lanes(m, 1, lanes, obf)
    }

    /// Encrypt a dense matrix at an explicit fixed-point scale, one
    /// value per ciphertext (a fresh encryption that must meet a scale-2
    /// product; the tests use it to build such products directly).
    pub fn encrypt_at_scale(&self, m: &Dense, scale: u8, obf: &Obfuscator) -> CtMat {
        self.encrypt_lanes(m, scale, LaneLayout::OnePerLane, obf)
    }

    /// One fresh ciphertext per lane of `m` in layout `lanes`. Lane
    /// `idx` (row-major) takes obfuscator draw `first + idx`: the serial
    /// stream, on any thread schedule.
    fn encrypt_lanes(&self, m: &Dense, scale: u8, lanes: LaneLayout, obf: &Obfuscator) -> CtMat {
        let body = match self {
            PublicKey::Paillier(pk) => {
                let first = obf.reserve((m.rows() * lanes.per_row(m.cols())) as u64);
                let limbs = lane_slab(pk, m, scale, lanes, |idx, ps, group| {
                    obf.encrypt_many(pk, ps, first + idx as u64, group)
                });
                Body::Paillier {
                    k: pk.ct_limbs(),
                    lanes,
                    limbs,
                }
            }
            PublicKey::Plain { frac_bits } => {
                Body::Plain(m.data().iter().map(|&v| quantize(v, *frac_bits)).collect())
            }
        };
        CtMat {
            rows: m.rows(),
            cols: m.cols(),
            scale,
            body,
        }
    }

    /// Homomorphic elementwise sum (scales and layouts must match).
    pub fn add(&self, a: &CtMat, b: &CtMat) -> CtMat {
        assert_eq!(a.shape(), b.shape(), "ct add shape mismatch");
        assert_eq!(a.scale, b.scale, "ct add scale mismatch");
        assert_eq!(
            a.body.paillier(),
            b.body.paillier(),
            "ct add layout mismatch"
        );
        match (self, &a.body, &b.body) {
            (PublicKey::Paillier(pk), Body::Paillier { .. }, Body::Paillier { .. }) => {
                let (ca, cb, k) = (a.cts(), b.cts(), pk.ct_limbs());
                let limbs = ct_slab(a.rows * ca.lanes, k, |first, group| {
                    let span = first..first + group.len() / k;
                    let lefts: Vec<&[u64]> = span.clone().map(|i| ca.nth(i)).collect();
                    let rights: Vec<&[u64]> = span.map(|i| cb.nth(i)).collect();
                    pk.mont.mont_mul_many(&lefts, &rights, group)
                });
                a.like(a.rows, a.scale, limbs)
            }
            (PublicKey::Plain { .. }, Body::Plain(va), Body::Plain(vb)) => CtMat {
                rows: a.rows,
                cols: a.cols,
                scale: a.scale,
                body: Body::Plain(va.iter().zip(vb).map(|(x, y)| x + y).collect()),
            },
            _ => panic!("ct add backend mismatch"),
        }
    }

    /// Homomorphic `ct + plain` (plain encoded at the ciphertext's
    /// scale): [`PaillierPk::add_plain_into`]'s identity on every lane,
    /// eight lanes to one `PaillierPk::add_plain_many`, whose products
    /// mod `n` are one [`bf_bigint::MontCtx::mont_mul_many`]. No fresh
    /// randomness is added: against a third party the result is as
    /// hidden as `ct`, but not against the key owner, who drew `ct`'s
    /// obfuscations itself: once it has decrypted an HE2SS reply, what
    /// remains is its own obfuscations raised to the holder's plaintext
    /// exponents (see [`crate::obf`]; pinned by `tests/security.rs`).
    pub fn add_plain(&self, a: &CtMat, p: &Dense) -> CtMat {
        assert_eq!(a.shape(), p.shape(), "add_plain shape mismatch");
        match (self, &a.body) {
            (PublicKey::Paillier(pk), Body::Paillier { lanes, .. }) => {
                let ca = a.cts();
                let limbs = lane_slab(pk, p, a.scale, *lanes, |first, ms, group| {
                    let xs: Vec<&[u64]> = (first..first + ms.len()).map(|i| ca.nth(i)).collect();
                    pk.add_plain_many(&xs, ms, None, group)
                });
                a.like(a.rows, a.scale, limbs)
            }
            (PublicKey::Plain { .. }, Body::Plain(v)) => CtMat {
                rows: a.rows,
                cols: a.cols,
                scale: a.scale,
                body: Body::Plain(v.iter().zip(p.data()).map(|(x, y)| x + y).collect()),
            },
            _ => panic!("add_plain backend mismatch"),
        }
    }

    /// Homomorphic `ct - plain`.
    pub fn sub_plain(&self, a: &CtMat, p: &Dense) -> CtMat {
        self.add_plain(a, &p.scale(-1.0))
    }

    /// `X · ⟦W⟧` — plaintext features times an encrypted weight matrix
    /// (scale 1 → scale 2). Sparse `X` touches only its non-zeros.
    /// Panics on a [`NonUnit`] ciphertext; [`PublicKey::product`]
    /// reports it.
    pub fn matmul(&self, x: &Features, w: &CtMat) -> CtMat {
        self.product(Product::MatMul { x, w })
            .expect("matmul over a ciphertext that is not a unit")
    }

    /// `prod` at scale 2, as [`PublicKey::matmul`] or
    /// [`PublicKey::t_matmul_support`] computes it.
    pub fn product(&self, prod: Product<'_>) -> Result<CtMat, NonUnit> {
        Ok(self
            .product_at(prod, Power::Paid)?
            .expect("a scaled product always exists"))
    }

    /// `prod` folded for its key owner, who only decrypts it: the bytes
    /// of [`PublicKey::repack`] of [`PublicKey::product`]. When every
    /// coefficient quantizes to an integer (0/1 indicators, counts) the
    /// fold runs on the product at its operand's scale and the
    /// `2^frac_bits` power is paid after it, on `⌈N/f⌉` folded
    /// ciphertexts instead of `N`: both are powers of the same
    /// ciphertexts, so they commute. A body `repack` leaves alone comes
    /// back at scale 2 in its own layout.
    pub fn folded_product(&self, prod: Product<'_>) -> Result<CtMat, NonUnit> {
        Ok(match self.product_at(prod, Power::Owed)? {
            Some(unscaled) => self.rescale(&self.repack(unscaled), 2),
            None => self.repack(self.product(prod)?),
        })
    }

    /// `prod` at `power`: `None` when the power is owed and a
    /// coefficient is no integer, or the body is Plain.
    fn product_at(&self, prod: Product<'_>, power: Power) -> Result<Option<CtMat>, NonUnit> {
        match prod {
            Product::MatMul { x, w } => self.matmul_at(x, w, power),
            Product::TMatMulSupport { x, g, support } => {
                self.t_matmul_support_at(x, g, support, power)
            }
        }
    }

    fn matmul_at(&self, x: &Features, w: &CtMat, power: Power) -> Result<Option<CtMat>, NonUnit> {
        assert_eq!(x.cols(), w.rows, "matmul shape mismatch");
        assert_eq!(w.scale, 1, "matmul expects a scale-1 weight ciphertext");
        match (self, &w.body) {
            (PublicKey::Paillier(pk), Body::Paillier { .. }) => {
                // Output row i is Π_c ⟦w_c·⟧^{x_ic}, lane by lane: a
                // packed lane advances a whole chunk of output columns.
                let rows: Vec<_> = (0..x.rows())
                    .map(|i| {
                        let mut nz = Vec::new();
                        for_each_nonzero(x, i, |c, v| nz.push((c, v)));
                        exponents(pk, nz)
                    })
                    .collect();
                let Some(rows) = power.apply(pk, rows) else {
                    return Ok(None);
                };
                let cw = w.cts();
                let limbs = contract(pk, cw.lanes, &rows, |c, l| cw.at(c, l))?;
                Ok(Some(w.like(x.rows(), power.scale(w.scale), limbs)))
            }
            (PublicKey::Plain { .. }, Body::Plain(_)) if power == Power::Owed => Ok(None),
            (PublicKey::Plain { frac_bits }, Body::Plain(wv)) => {
                let wd = Dense::from_vec(w.rows, w.cols, wv.clone());
                let xq = quantize_features(x, *frac_bits);
                Ok(Some(CtMat {
                    rows: x.rows(),
                    cols: w.cols,
                    scale: 2,
                    body: Body::Plain(xq.matmul(&wd).data().to_vec()),
                }))
            }
            _ => panic!("matmul backend mismatch"),
        }
    }

    /// `Xᵀ · ⟦G⟧` restricted to the feature rows in `support` (sorted
    /// global column indices of `X`): output row `s` is
    /// `Σ_i X[i, support[s]] · G[i, ·]`.
    ///
    /// This is the sparse gradient projection `∇W = Xᵀ∇Z`; for sparse
    /// `X` the protocol only ever materialises the batch's support rows.
    /// Panics on a [`NonUnit`] ciphertext; [`PublicKey::product`]
    /// reports it.
    pub fn t_matmul_support(&self, x: &Features, g: &CtMat, support: &[u32]) -> CtMat {
        self.product(Product::TMatMulSupport { x, g, support })
            .expect("t_matmul_support over a ciphertext that is not a unit")
    }

    fn t_matmul_support_at(
        &self,
        x: &Features,
        g: &CtMat,
        support: &[u32],
        power: Power,
    ) -> Result<Option<CtMat>, NonUnit> {
        assert_eq!(x.rows(), g.rows, "t_matmul shape mismatch");
        assert_eq!(g.scale, 1, "t_matmul expects a scale-1 ciphertext");
        // Build per-support-row coefficient lists (i, value).
        let pos_of: std::collections::HashMap<u32, usize> =
            support.iter().enumerate().map(|(p, &c)| (c, p)).collect();
        let mut coeffs: Vec<Vec<(usize, f64)>> = vec![Vec::new(); support.len()];
        for i in 0..x.rows() {
            for_each_nonzero(x, i, |c, v| {
                if let Some(&p) = pos_of.get(&(c as u32)) {
                    coeffs[p].push((i, v));
                }
            });
        }
        match (self, &g.body) {
            (PublicKey::Paillier(pk), Body::Paillier { .. }) => {
                let rows: Vec<_> = coeffs
                    .iter()
                    .map(|list| exponents(pk, list.iter().copied()))
                    .collect();
                let Some(rows) = power.apply(pk, rows) else {
                    return Ok(None);
                };
                let cg = g.cts();
                let limbs = contract(pk, cg.lanes, &rows, |i, l| cg.at(i, l))?;
                Ok(Some(g.like(support.len(), power.scale(g.scale), limbs)))
            }
            (PublicKey::Plain { .. }, Body::Plain(_)) if power == Power::Owed => Ok(None),
            (PublicKey::Plain { frac_bits }, Body::Plain(gv)) => {
                let gd = Dense::from_vec(g.rows, g.cols, gv.clone());
                let mut out = Dense::zeros(support.len(), g.cols);
                for (s, list) in coeffs.iter().enumerate() {
                    for &(i, v) in list {
                        let vq = quantize(v, *frac_bits);
                        let orow = out.row_mut(s);
                        for (o, &gval) in orow.iter_mut().zip(gd.row(i)) {
                            *o += vq * gval;
                        }
                    }
                }
                Ok(Some(CtMat {
                    rows: support.len(),
                    cols: g.cols,
                    scale: 2,
                    body: Body::Plain(out.data().to_vec()),
                }))
            }
            _ => panic!("t_matmul backend mismatch"),
        }
    }

    /// `⟦G⟧ · Wᵀ` — encrypted activations times a plaintext weight
    /// transpose: output `(i, e) = Σ_j G[i,j]·W[e,j]` (scale 1 → 2).
    /// Used for the cross term of the SecureML baseline's Beaver triples
    /// (`bf_mpc::beaver::he_gen_triple`); the Embed-MatMul backward lays
    /// its operands out for an ordinary [`PublicKey::matmul`] instead.
    pub fn matmul_ct_wt(&self, g: &CtMat, w: &Dense) -> CtMat {
        assert_eq!(g.cols, w.cols(), "matmul_ct_wt shape mismatch");
        assert_eq!(g.scale, 1, "matmul_ct_wt expects a scale-1 ciphertext");
        assert!(
            !g.is_packed(),
            "matmul_ct_wt contracts over the packed axis; keep ⟦G⟧ scalar"
        );
        match (self, &g.body) {
            (PublicKey::Paillier(pk), Body::Paillier { .. }) => {
                // ⟦G⟧·Wᵀ = (W·⟦G⟧ᵀ)ᵀ: W's rows are the exponent rows and
                // ⟦G⟧ is read transposed, so each ⟦g_ij⟧ is one base that
                // meets `w.rows()` exponents and builds its table once.
                let rows: Vec<_> = (0..w.rows())
                    .map(|e| exponents(pk, w.row(e).iter().copied().enumerate()))
                    .collect();
                let cg = g.cts();
                let t = contract(pk, g.rows, &rows, |j, i| cg.at(i, j))
                    .expect("matmul_ct_wt over a ciphertext that is not a unit");
                CtMat {
                    rows: g.rows,
                    cols: w.rows(),
                    scale: 2,
                    body: g
                        .body
                        .with_limbs(transpose_flat(&t, w.rows(), g.rows, cg.k)),
                }
            }
            (PublicKey::Plain { frac_bits }, Body::Plain(gv)) => {
                let gd = Dense::from_vec(g.rows, g.cols, gv.clone());
                let wq = Dense::from_vec(
                    w.rows(),
                    w.cols(),
                    w.data().iter().map(|&v| quantize(v, *frac_bits)).collect(),
                );
                CtMat {
                    rows: g.rows,
                    cols: w.rows(),
                    scale: 2,
                    body: Body::Plain(gd.matmul_t(&wq).data().to_vec()),
                }
            }
            _ => panic!("matmul_ct_wt backend mismatch"),
        }
    }

    /// Embedding lookup over an encrypted table: gathers, for each
    /// instance, the table rows of its categorical indices and
    /// concatenates them (`rows × fields·dim`). Pure data movement — the
    /// indices never leave their owner. A table row is whole lanes (a
    /// packed table's is whole segments), so the concatenation keeps the
    /// table's lane layout.
    pub fn lkup(&self, table: &CtMat, x: &CatBlock) -> CtMat {
        assert_eq!(table.rows, x.vocab(), "lkup vocab mismatch");
        let picks = (0..x.rows()).flat_map(|r| x.row(r).iter().map(|&g| g as usize));
        CtMat {
            rows: x.rows(),
            cols: x.fields() * table.cols,
            scale: table.scale,
            body: table.body.gather(table.cols, x.rows() * x.fields(), picks),
        }
    }

    /// Embedding backward over encrypted derivatives: scatter-adds each
    /// instance-field slice of `⟦∇E⟧` into the touched table rows.
    /// Output row `s` is `Σ_{(r,f): X[r,f]=support[s]} ∇E[r, f·dim..]`
    /// — only the batch-support rows are materialised (sparse).
    ///
    /// A field slice must be whole lanes — for a packed `⟦∇E⟧`,
    /// segmented by field (`seg = dim`, the layout `lkup` gathers into):
    /// the scatter is then the gather run backwards — one `mont_mul` per
    /// lane — and the result has the table's own layout. A packed
    /// segmentation that would split a ciphertext between two table
    /// rows is refused.
    pub fn lkup_bw(&self, grad_e: &CtMat, x: &CatBlock, support: &[u32], dim: usize) -> CtMat {
        assert_eq!(grad_e.cols, x.fields() * dim, "lkup_bw shape mismatch");
        assert_eq!(grad_e.rows, x.rows(), "lkup_bw row mismatch");
        // Per-support hit lists.
        let pos_of: std::collections::HashMap<u32, usize> =
            support.iter().enumerate().map(|(p, &c)| (c, p)).collect();
        let mut hits: Vec<Vec<(usize, usize)>> = vec![Vec::new(); support.len()];
        for r in 0..x.rows() {
            for (f, &g) in x.row(r).iter().enumerate() {
                if let Some(&p) = pos_of.get(&g) {
                    hits[p].push((r, f));
                }
            }
        }
        match (self, &grad_e.body) {
            (PublicKey::Paillier(pk), Body::Paillier { lanes, .. }) => {
                assert!(
                    lanes.tiles(dim),
                    "lkup_bw scatters whole field slices; pack ⟦∇E⟧ with seg = dim"
                );
                // Ciphertexts per field slice.
                let (width, ce) = (lanes.per_row(dim), grad_e.cts());
                let rows: Vec<Vec<u64>> = par_map(support.len(), |s| {
                    let mut acc = vec![pk.mont.one_mont(); width]; // ⟦0⟧ = g^0 = 1
                    for &(r, f) in &hits[s] {
                        for (l, a) in acc.iter_mut().enumerate() {
                            *a = pk.mont.mont_mul(a, ce.at(r, f * width + l));
                        }
                    }
                    acc.concat()
                });
                // ⟦∇E⟧'s own layout, one field wide.
                CtMat {
                    rows: support.len(),
                    cols: dim,
                    scale: grad_e.scale,
                    body: grad_e.body.with_limbs(rows.concat()),
                }
            }
            (PublicKey::Plain { .. }, Body::Plain(gv)) => {
                let mut ov = vec![0.0; support.len() * dim];
                for (s, list) in hits.iter().enumerate() {
                    for &(r, f) in list {
                        for d in 0..dim {
                            ov[s * dim + d] += gv[r * grad_e.cols + f * dim + d];
                        }
                    }
                }
                CtMat {
                    rows: support.len(),
                    cols: dim,
                    scale: grad_e.scale,
                    body: Body::Plain(ov),
                }
            }
            _ => panic!("lkup_bw backend mismatch"),
        }
    }

    /// Homomorphically add `delta`'s rows into the given rows of a
    /// cached ciphertext (the `Recv and Update ⟦V⟧` steps of Figures 6
    /// and 7). Scales and layouts must match. The products are one
    /// parallel section over groups of [`LANES`] ciphertexts, each group
    /// one [`bf_bigint::MontCtx::mont_mul_many`]; a call that names a row
    /// twice adds its deltas one after another instead.
    pub fn rows_add_assign(&self, cache: &mut CtMat, rows: &[usize], delta: &CtMat) {
        assert_eq!(rows.len(), delta.rows, "rows_add_assign row mismatch");
        assert_eq!(cache.cols, delta.cols, "rows_add_assign col mismatch");
        assert_eq!(cache.scale, delta.scale, "rows_add_assign scale mismatch");
        assert_eq!(
            cache.body.paillier(),
            delta.body.paillier(),
            "rows_add_assign layout mismatch"
        );
        let stride = cache.body.row_len(cache.cols);
        match (self, &mut cache.body, &delta.body) {
            (
                PublicKey::Paillier(pk),
                Body::Paillier { k, limbs, .. },
                Body::Paillier { limbs: dlimbs, .. },
            ) => {
                let k = *k;
                let mut sorted = rows.to_vec();
                sorted.sort_unstable();
                if sorted.windows(2).any(|w| w[0] == w[1]) {
                    let mut sum = vec![0u64; k];
                    for (d, &r) in rows.iter().enumerate() {
                        let cur = limbs[r * stride..][..stride].chunks_exact_mut(k);
                        for (c, dc) in cur.zip(dlimbs[d * stride..][..stride].chunks_exact(k)) {
                            pk.mont.mont_mul_into(c, dc, &mut sum);
                            c.copy_from_slice(&sum);
                        }
                    }
                    return;
                }
                let per_row = stride / k;
                let sums = ct_slab(rows.len() * per_row, k, |first, group| {
                    let span = first..first + group.len() / k;
                    let lefts: Vec<&[u64]> = span
                        .clone()
                        .map(|i| &limbs[rows[i / per_row] * stride + i % per_row * k..][..k])
                        .collect();
                    let rights: Vec<&[u64]> = span.map(|i| &dlimbs[i * k..][..k]).collect();
                    pk.mont.mont_mul_many(&lefts, &rights, group)
                });
                for (d, &r) in rows.iter().enumerate() {
                    limbs[r * stride..][..stride].copy_from_slice(&sums[d * stride..][..stride]);
                }
            }
            (PublicKey::Plain { .. }, Body::Plain(cv), Body::Plain(dv)) => {
                for (d, &r) in rows.iter().enumerate() {
                    for (c, dc) in cv[r * stride..][..stride].iter_mut().zip(&dv[d * stride..]) {
                        *c += dc;
                    }
                }
            }
            _ => panic!("rows_add_assign backend mismatch"),
        }
    }

    /// Fold a matrix that only has to be *decrypted* into a packed
    /// `1 × N` row (`N = rows·cols`, row-major, one segment) with as many
    /// values per ciphertext as the key holds. A body qualifies when its
    /// lanes hold `u` values each and tile the values in row-major order
    /// (`LaneLayout::fold_width`), with `f = ⌊slots/u⌋` lanes per
    /// output:
    ///
    /// - one value per lane (`u = 1`, `f = slots`): every element is a
    ///   source;
    /// - a packed body whose rows are one chunk of `u = cols ≤ slots/2`
    ///   slots in this key's layout: every row is a source, and the
    ///   result carries `slots = f·u` in its [`SlotLayout`].
    ///
    /// Group `g` becomes `Π_j ⟦P_{g·f+j}⟧^{2^{j·u·slot_bits}}`, a
    /// ciphertext of `Σ_j P_{g·f+j}·2^{j·u·slot_bits}` — the sources'
    /// slots laid end to end — in canonical Montgomery form: a Horner
    /// chain from the top source down, `(f−1)·u·slot_bits` squarings and
    /// `f−1` multiplies, no table: one [`bf_bigint::MontCtx::fold_many`]
    /// over the whole body, eight outputs to a lane group on CPUs with
    /// AVX-512 IFMA. Decrypts bit-identically to `ct` (see
    /// [`crate::pack`]).
    ///
    /// Anything else comes back untouched: a Plain body, a packed body
    /// with several chunks per row, more than `slots/2` columns or
    /// another layout (an already folded one included), a key without a
    /// slot layout, fewer than two sources.
    pub fn repack(&self, ct: CtMat) -> CtMat {
        let (PublicKey::Paillier(pk), Some(layout)) = (self, self.slot_layout()) else {
            return ct;
        };
        let (k, limbs, u) = match &ct.body {
            Body::Paillier { k, lanes, limbs } => match lanes.fold_width(ct.cols, layout) {
                Some(u) => (*k, limbs, u),
                None => return ct,
            },
            Body::Plain(_) => return ct,
        };
        let n = ct.rows * ct.cols;
        let (sources, fold) = (n / u, layout.slots / u);
        if sources < 2 {
            return ct;
        }
        let packed = pk
            .mont
            .fold_many(limbs, fold, u * layout.slot_bits as usize);
        let slots = SlotLayout {
            slots: fold * u,
            ..layout
        };
        CtMat::from_paillier_parts(
            1,
            n,
            ct.scale,
            k,
            LaneLayout::Packed {
                layout: slots,
                seg: n,
            },
            packed,
        )
    }

    /// `ct` at fixed-point `scale` (not below `ct`'s): every ciphertext
    /// raised to `2^(frac_bits·Δscale)`, the power an integer product
    /// owes in [`PublicKey::folded_product`] — one
    /// [`bf_bigint::MontCtx::multi_pow_many`] of one-term products,
    /// eight ciphertexts to a lane group on CPUs with AVX-512 IFMA.
    /// Either layout; a Plain body only takes the new scale.
    fn rescale(&self, ct: &CtMat, scale: u8) -> CtMat {
        assert!(
            scale >= ct.scale,
            "rescale lowers scale {} to {scale}",
            ct.scale
        );
        let shift = self.frac_bits() as usize * (scale - ct.scale) as usize;
        let body = match (self, &ct.body) {
            (PublicKey::Paillier(pk), Body::Paillier { limbs, .. }) if shift > 0 => {
                let cts: Vec<&[u64]> = limbs.chunks_exact(pk.ct_limbs()).collect();
                ct.body.with_limbs(pow2_many(pk, &cts, shift))
            }
            (PublicKey::Paillier(_), Body::Paillier { .. })
            | (PublicKey::Plain { .. }, Body::Plain(_)) => ct.body.clone(),
            _ => panic!("rescale backend mismatch"),
        };
        CtMat {
            rows: ct.rows,
            cols: ct.cols,
            scale,
            body,
        }
    }
}

impl SecretKey {
    /// Whether `ct` is a body this key decrypts, or why not: the key's
    /// own backend, for Paillier its ciphertext width and a lane layout
    /// the key decodes (a packed body's slot width, with no more slots
    /// than the key holds — a [`PublicKey::repack`]-folded row may carry
    /// fewer). What [`crate::import_ctmat`] accepted is consistent in
    /// itself; this is the half of a peer's claim only the key owner can
    /// check, and [`SecretKey::decrypt`] — which panics on another
    /// backend or limb count, and picks its CRT path from the layout —
    /// runs after it.
    pub fn conforms(&self, ct: &CtMat) -> Result<(), String> {
        let (sk, k, lanes) = match (self, &ct.body) {
            (SecretKey::Plain, Body::Plain(_)) => return Ok(()),
            (SecretKey::Plain, _) => return Err("ciphertexts for the Plain backend".into()),
            (SecretKey::Paillier(_), Body::Plain(_)) => {
                return Err("a Plain body for a Paillier key".into())
            }
            (SecretKey::Paillier(sk), Body::Paillier { k, lanes, .. }) => (sk, *k, lanes),
        };
        lanes.fits(sk.pk())?;
        if k != sk.pk().ct_limbs() {
            return Err(format!(
                "{k}-limb ciphertexts, this key's are {} limbs",
                sk.pk().ct_limbs()
            ));
        }
        Ok(())
    }

    /// Decrypt to a dense matrix, rescaling by the ciphertext's
    /// fixed-point scale. `ct` is a body [`SecretKey::conforms`] accepts.
    pub fn decrypt(&self, ct: &CtMat) -> Dense {
        match (self, &ct.body) {
            (SecretKey::Paillier(sk), Body::Paillier { lanes, .. }) => {
                // Lanes tile each row in column order, so their outputs
                // tile `vals`.
                let (pk, cts) = (sk.pk(), ct.cts());
                let mut vals = vec![0.0; ct.rows * ct.cols];
                let mut outs = Vec::with_capacity(ct.rows * cts.lanes);
                let mut rest = &mut vals[..];
                for idx in 0..ct.rows * cts.lanes {
                    let (out, tail) = rest.split_at_mut(lanes.span(idx % cts.lanes).len());
                    outs.push(out);
                    rest = tail;
                }
                // A chunk's plaintext spans its used slots only, and one
                // that stays below p/2 costs one CRT half.
                let batch: Vec<(&[u64], Option<usize>)> = outs
                    .iter()
                    .enumerate()
                    .map(|(idx, out)| (cts.nth(idx), lanes.width(out.len())))
                    .collect();
                let ms = sk.raw_decrypt_many(&batch);
                par_for_each_mut(&mut outs, |idx, out| {
                    lanes.decode(&ms[idx], pk, ct.scale, out)
                });
                Dense::from_vec(ct.rows, ct.cols, vals)
            }
            (SecretKey::Plain, Body::Plain(v)) => Dense::from_vec(ct.rows, ct.cols, v.clone()),
            _ => panic!("decrypt backend mismatch"),
        }
    }
}

/// Iterate the non-zeros of row `i` of a feature block.
fn for_each_nonzero(x: &Features, i: usize, mut f: impl FnMut(usize, f64)) {
    match x {
        Features::Dense(d) => {
            for (c, &v) in d.row(i).iter().enumerate() {
                if v != 0.0 {
                    f(c, v);
                }
            }
        }
        Features::Sparse(s) => {
            let (idx, vals) = s.row(i);
            for (&c, &v) in idx.iter().zip(vals) {
                f(c as usize, v);
            }
        }
    }
}

fn quantize_features(x: &Features, frac_bits: u32) -> Dense {
    let d = x.to_dense();
    d.map(|v| quantize(v, frac_bits))
}

/// `n` ciphertexts of `k` limbs, written [`LANES`] at a time: the group
/// from ciphertext `first` (the last one may be shorter) by `f(first,
/// group)`. Parallel workers fill disjoint groups of one preallocated
/// slab; a group is about eight µs-sized items, so the section stays
/// serial below [`FINE`] ciphertexts.
fn ct_slab(n: usize, k: usize, f: impl Fn(usize, &mut [u64]) + Sync) -> Vec<u64> {
    let mut limbs = vec![0u64; n * k];
    let mut groups: Vec<&mut [u64]> = limbs.chunks_mut(LANES * k).collect();
    par_for_each_mut_min(FINE.div_ceil(LANES), &mut groups, |g, group| {
        f(g * LANES, group)
    });
    limbs
}

/// One ciphertext per lane of `m` in layout `lanes`, [`ct_slab`]'s group
/// from lane `idx` (row-major) written by `f(idx, Ps, group)` with `Ps`
/// the group's values encoded at `scale`, one per lane.
fn lane_slab(
    pk: &PaillierPk,
    m: &Dense,
    scale: u8,
    lanes: LaneLayout,
    f: impl Fn(usize, &[BigUint], &mut [u64]) + Sync,
) -> Vec<u64> {
    let (per_row, k) = (lanes.per_row(m.cols()), pk.ct_limbs());
    ct_slab(m.rows() * per_row, k, |first, group| {
        let ps: Vec<BigUint> = (first..first + group.len() / k)
            .map(|idx| {
                let vals = &m.row(idx / per_row)[lanes.span(idx % per_row)];
                lanes
                    .encode(vals, pk, scale)
                    .expect("value overflows its pack slot")
            })
            .collect();
        f(first, &ps, group)
    })
}

/// Row-major `rows × cols` entries of `k` words, transposed.
fn transpose_flat<T: Copy + Default>(data: &[T], rows: usize, cols: usize, k: usize) -> Vec<T> {
    let mut out = vec![T::default(); data.len()];
    for i in 0..rows {
        for j in 0..cols {
            let (src, dst) = ((i * cols + j) * k, (j * rows + i) * k);
            out[dst..dst + k].copy_from_slice(&data[src..src + k]);
        }
    }
    out
}

/// Whether a plain×cipher product pays its `2^frac_bits` power (scale
/// 2) or owes it to a later `rescale` (its operand's scale, for
/// all-integer coefficients only).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Power {
    Paid,
    Owed,
}

impl Power {
    /// The product's scale over an operand at `operand`.
    fn scale(self, operand: u8) -> u8 {
        match self {
            Power::Paid => 2,
            Power::Owed => operand,
        }
    }

    /// `rows`' exponents for this power: as encoded, or divided by
    /// `2^frac_bits` — `None` if one is not a multiple of it (a
    /// coefficient that does not quantize to an integer).
    fn apply(self, pk: &PaillierPk, rows: Vec<ExpRow>) -> Option<Vec<ExpRow>> {
        let f = pk.frac_bits as usize;
        match self {
            Power::Paid => Some(rows),
            Power::Owed => rows
                .into_iter()
                .map(|row| {
                    row.into_iter()
                        .map(|(src, e)| {
                            (e.mag.trailing_zeros()? >= f).then(|| {
                                let mag = e.mag.shr(f);
                                (src, SignedInt { mag, neg: e.neg })
                            })
                        })
                        .collect()
                })
                .collect(),
        }
    }
}

/// One output row's terms: `(source row, signed exponent)`.
type ExpRow = Vec<(usize, SignedInt)>;

/// One output row's `(source row, value)` pairs as signed fixed-point
/// exponents; values that round to zero drop out.
fn exponents(pk: &PaillierPk, pairs: impl IntoIterator<Item = (usize, f64)>) -> ExpRow {
    pairs
        .into_iter()
        .map(|(src, v)| (src, codec::encode_exponent(v, pk.frac_bits)))
        .filter(|(_, e)| !e.is_zero())
        .collect()
}

/// `b^(2^shift)` of every `k`-limb Montgomery-form value `b` of `bases`,
/// laid end to end: one [`bf_bigint::MontCtx::multi_pow_many`] of
/// one-term products, canonical.
fn pow2_many(pk: &PaillierPk, bases: &[&[u64]], shift: usize) -> Vec<u64> {
    let e = BigUint::one().shl(shift);
    let terms: Vec<[LaneTerm; 1]> = (0..bases.len())
        .map(|base| [LaneTerm { base, exp: &e }])
        .collect();
    let products: Vec<&[LaneTerm]> = terms.iter().map(|t| &t[..]).collect();
    let mut out = vec![0u64; bases.len() * pk.ct_limbs()];
    pk.mont.multi_pow_many(bases, &products, &mut out);
    out
}

/// The contraction core under every plain×cipher product: a flat
/// `rows × lanes` slab whose ciphertext `(r, l)` is
/// `Π_t base(src_t, l)^{e_t}` over the terms `(src_t, e_t)` of `rows[r]`
/// (exponents non-zero).
///
/// Each row is two products, its positive and its negative terms, raised
/// by one [`bf_bigint::MontCtx::multi_pow_many`] per lane over the call's
/// sources — which groups equal exponents, shares window tables between
/// rows and runs the products on the IFMA lanes or one scalar chain
/// each. The call's common power of two `2^s` (the largest dividing
/// every exponent: `s ≥ frac_bits` for integer coefficients) is paid
/// once, on whichever side has fewer ciphertexts: when the call has
/// fewer sources than products, each source, per lane, is raised to
/// `2^s` first ([`pow2_many`]) and the exponents divided by it; else
/// each product's chain pays its `s` squarings. Both give the same group
/// elements, so the same canonical limbs. All negative accumulators of
/// the call are then inverted together: one `mod_inv`, not one per row,
/// plus three multiplies per inverted accumulator — a [`NonUnit`] error
/// if one is not invertible.
fn contract<'a>(
    pk: &PaillierPk,
    lanes: usize,
    rows: &[ExpRow],
    base: impl Fn(usize, usize) -> &'a [u64],
) -> Result<Vec<u64>, NonUnit> {
    let mont = &pk.mont;
    let k = mont.limb_count();
    let stride = lanes * k;
    if stride == 0 {
        return Ok(Vec::new());
    }
    // The call's sources; a term names its source by its index here.
    let mut sources: Vec<usize> = rows.iter().flatten().map(|(src, _)| *src).collect();
    sources.sort_unstable();
    sources.dedup();
    // The products: every row's positive side, then the negative side of
    // each row that has one.
    let negs: Vec<usize> = (0..rows.len())
        .filter(|&r| rows[r].iter().any(|(_, e)| e.neg))
        .collect();
    let n_products = rows.len() + negs.len();

    // Where the common power is paid: on the sources, or in the chains.
    let common = rows
        .iter()
        .flatten()
        .filter_map(|(_, e)| e.mag.trailing_zeros());
    let shift = match common.min() {
        Some(s) if s > 0 && sources.len() < n_products => s,
        _ => 0,
    };
    let raised = (shift > 0).then(|| {
        let bases: Vec<&[u64]> = sources
            .iter()
            .flat_map(|&src| (0..lanes).map(move |l| (src, l)))
            .map(|(src, l)| base(src, l))
            .collect();
        pow2_many(pk, &bases, shift)
    });
    let mags: Vec<Vec<BigUint>> = match raised {
        Some(_) => rows
            .iter()
            .map(|row| row.iter().map(|(_, e)| e.mag.shr(shift)).collect())
            .collect(),
        None => Vec::new(),
    };
    let side = |r: usize, negative: bool| -> Vec<LaneTerm> {
        rows[r]
            .iter()
            .enumerate()
            .filter(|(_, (_, e))| e.neg == negative)
            .map(|(t, (src, e))| LaneTerm {
                base: sources.binary_search(src).expect("a source of the call"),
                exp: mags.get(r).map_or(&e.mag, |m| &m[t]),
            })
            .collect()
    };
    let products: Vec<Vec<LaneTerm>> = (0..rows.len())
        .map(|r| side(r, false))
        .chain(negs.iter().map(|&r| side(r, true)))
        .collect();
    let products: Vec<&[LaneTerm]> = products.iter().map(|p| &p[..]).collect();

    // One lane at a time, so the shared tables never hold more than one
    // lane's worth of bases.
    let mut res = vec![0u64; products.len() * stride];
    let mut got = vec![0u64; products.len() * k];
    for l in 0..lanes {
        let bases: Vec<&[u64]> = match &raised {
            Some(raised) => (0..sources.len())
                .map(|s| &raised[(s * lanes + l) * k..][..k])
                .collect(),
            None => sources.iter().map(|&src| base(src, l)).collect(),
        };
        mont.multi_pow_many(&bases, &products, &mut got);
        for (i, ct) in got.chunks_exact(k).enumerate() {
            res[i * stride + l * k..][..k].copy_from_slice(ct);
        }
    }

    // out = pos · neg⁻¹ wherever a row had negative terms.
    let (out, inverted) = res.split_at_mut(rows.len() * stride);
    if !mont.batch_inv_mont(inverted) {
        return Err(NonUnit);
    }
    let mut tmp = vec![0u64; k];
    for (&r, inv) in negs.iter().zip(inverted.chunks_exact(stride)) {
        let pos = out[r * stride..(r + 1) * stride].chunks_exact_mut(k);
        for (ct, inv) in pos.zip(inv.chunks_exact(k)) {
            mont.mont_mul_into(ct, inv, &mut tmp);
            ct.copy_from_slice(&tmp);
        }
    }
    res.truncate(rows.len() * stride);
    Ok(res)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::{keygen, plain_keys};
    use crate::pack;
    use crate::{ObfMode, Obfuscator};
    use bf_bigint::mont::PowMany;
    use bf_tensor::Csr;
    use rand::SeedableRng;

    impl CtMat {
        /// Montgomery limbs of the ciphertext at row `i`, lane `l`.
        fn ct(&self, i: usize, l: usize) -> &[u64] {
            self.cts().at(i, l)
        }

        /// Ciphertexts per row.
        fn lanes(&self) -> usize {
            self.cts().lanes
        }
    }

    fn setup() -> (PublicKey, SecretKey, Obfuscator) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        let (pk, sk) = keygen(256, 20, &mut rng);
        let obf = Obfuscator::new(&pk, ObfMode::Pool(8), 5);
        (pk, sk, obf)
    }

    fn dense(rows: usize, cols: usize, seed: u64) -> Dense {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        bf_tensor::init::uniform(&mut rng, rows, cols, 3.0)
    }

    #[test]
    fn encrypt_decrypt_roundtrip() {
        let (pk, sk, obf) = setup();
        let m = dense(3, 4, 1);
        let ct = pk.encrypt(&m, &obf);
        assert_eq!(ct.scale(), 1);
        assert!(sk.decrypt(&ct).approx_eq(&m, 1e-5));
    }

    #[test]
    fn homomorphic_add_and_plain_ops() {
        let (pk, sk, obf) = setup();
        let a = dense(2, 3, 2);
        let b = dense(2, 3, 3);
        let ca = pk.encrypt(&a, &obf);
        let cb = pk.encrypt(&b, &obf);
        assert!(sk.decrypt(&pk.add(&ca, &cb)).approx_eq(&a.add(&b), 1e-5));
        assert!(sk
            .decrypt(&pk.add_plain(&ca, &b))
            .approx_eq(&a.add(&b), 1e-5));
        assert!(sk
            .decrypt(&pk.sub_plain(&ca, &b))
            .approx_eq(&a.sub(&b), 1e-5));
    }

    #[test]
    fn matmul_dense_matches_plaintext() {
        let (pk, sk, obf) = setup();
        let x = dense(4, 3, 4);
        let w = dense(3, 2, 5);
        let cw = pk.encrypt(&w, &obf);
        let cz = pk.matmul(&Features::Dense(x.clone()), &cw);
        assert_eq!(cz.scale(), 2);
        assert!(sk.decrypt(&cz).approx_eq(&x.matmul(&w), 1e-4));
    }

    #[test]
    fn matmul_sparse_matches_plaintext() {
        let (pk, sk, obf) = setup();
        let mut xd = dense(5, 6, 6);
        // Zero out most entries.
        for (i, v) in xd.data_mut().iter_mut().enumerate() {
            if i % 3 != 0 {
                *v = 0.0;
            }
        }
        let x = Csr::from_dense(&xd);
        let w = dense(6, 2, 7);
        let cw = pk.encrypt(&w, &obf);
        let cz = pk.matmul(&Features::Sparse(x), &cw);
        assert!(sk.decrypt(&cz).approx_eq(&xd.matmul(&w), 1e-4));
    }

    #[test]
    fn t_matmul_support_matches_plaintext() {
        let (pk, sk, obf) = setup();
        let mut xd = dense(4, 5, 8);
        for (i, v) in xd.data_mut().iter_mut().enumerate() {
            if i % 2 == 0 {
                *v = 0.0;
            }
        }
        let x = Csr::from_dense(&xd);
        let support = x.col_support();
        let g = dense(4, 3, 9);
        let cg = pk.encrypt(&g, &obf);
        let cgrad = pk.t_matmul_support(&Features::Sparse(x), &cg, &support);
        let full = xd.t_matmul(&g);
        let want = full.select_rows(&support.iter().map(|&c| c as usize).collect::<Vec<_>>());
        assert!(sk.decrypt(&cgrad).approx_eq(&want, 1e-4));
    }

    #[test]
    fn matmul_ct_wt_matches_plaintext() {
        let (pk, sk, obf) = setup();
        let g = dense(3, 4, 10);
        let w = dense(5, 4, 11);
        let cg = pk.encrypt(&g, &obf);
        let out = pk.matmul_ct_wt(&cg, &w);
        assert!(sk.decrypt(&out).approx_eq(&g.matmul_t(&w), 1e-4));
    }

    #[test]
    fn lkup_and_lkup_bw_roundtrip() {
        let (pk, sk, obf) = setup();
        let table = dense(6, 2, 12); // vocab 6, dim 2
        let x = CatBlock::from_local(3, &[3, 3], vec![0, 2, 1, 0, 2, 2]);
        let ct = pk.encrypt(&table, &obf);
        let e = pk.lkup(&ct, &x);
        assert_eq!(e.shape(), (3, 4));
        // Expected plaintext lookup.
        let mut want = Dense::zeros(3, 4);
        for r in 0..3 {
            for (f, &g) in x.row(r).iter().enumerate() {
                for d in 0..2 {
                    want.set(r, f * 2 + d, table.get(g as usize, d));
                }
            }
        }
        assert!(sk.decrypt(&e).approx_eq(&want, 1e-5));

        // lkup_bw: scatter a gradient back; compare against a dense
        // scatter-add reference.
        let grad_e = dense(3, 4, 13);
        let cge = pk.encrypt(&grad_e, &obf);
        let support = x.support();
        let gq = pk.lkup_bw(&cge, &x, &support, 2);
        let mut want_q = Dense::zeros(support.len(), 2);
        for r in 0..3 {
            for (f, &g) in x.row(r).iter().enumerate() {
                let s = support.binary_search(&g).unwrap();
                for d in 0..2 {
                    let cur = want_q.get(s, d);
                    want_q.set(s, d, cur + grad_e.get(r, f * 2 + d));
                }
            }
        }
        assert!(sk.decrypt(&gq).approx_eq(&want_q, 1e-4));
    }

    #[test]
    fn rows_add_assign_updates_cache() {
        let (pk, sk, obf) = setup();
        let v = dense(4, 2, 14);
        let delta = dense(2, 2, 15);
        let mut cache = pk.encrypt(&v, &obf);
        let cdelta = pk.encrypt(&delta, &obf);
        pk.rows_add_assign(&mut cache, &[1, 3], &cdelta);
        let got = sk.decrypt(&cache);
        let mut want = v.clone();
        for (d, &r) in [1usize, 3].iter().enumerate() {
            for j in 0..2 {
                let cur = want.get(r, j);
                want.set(r, j, cur + delta.get(d, j));
            }
        }
        assert!(got.approx_eq(&want, 1e-5));
    }

    #[test]
    fn select_rows_gathers() {
        let (pk, sk, obf) = setup();
        let m = dense(4, 3, 16);
        let ct = pk.encrypt(&m, &obf);
        let sel = ct.select_rows(&[2, 0]);
        assert!(sk.decrypt(&sel).approx_eq(&m.select_rows(&[2, 0]), 1e-5));
    }

    #[test]
    fn plain_backend_mirrors_paillier() {
        let (pk, sk) = plain_keys(20);
        let obf = Obfuscator::new(&pk, ObfMode::Pool(2), 0);
        let x = dense(4, 3, 17);
        let w = dense(3, 2, 18);
        let cw = pk.encrypt(&w, &obf);
        let cz = pk.matmul(&Features::Dense(x.clone()), &cw);
        assert!(sk.decrypt(&cz).approx_eq(&x.matmul(&w), 1e-4));
        let g = dense(4, 2, 19);
        let cg = pk.encrypt(&g, &obf);
        let support: Vec<u32> = (0..3).collect();
        let grad = pk.t_matmul_support(&Features::Dense(x.clone()), &cg, &support);
        assert!(sk.decrypt(&grad).approx_eq(&x.t_matmul(&g), 1e-4));
    }

    #[test]
    fn transpose_roundtrip_and_decrypt() {
        let (pk, sk, obf) = setup();
        let m = dense(3, 5, 21);
        let ct = pk.encrypt(&m, &obf);
        let t = ct.transpose();
        assert_eq!(t.shape(), (5, 3));
        assert!(sk.decrypt(&t).approx_eq(&m.transpose(), 1e-5));
        assert!(sk.decrypt(&t.transpose()).approx_eq(&m, 1e-5));
    }

    #[test]
    fn encrypt_at_scale_two_adds_with_products() {
        let (pk, sk, obf) = setup();
        let x = dense(2, 3, 22);
        let w = dense(3, 2, 23);
        let cw = pk.encrypt(&w, &obf);
        let prod = pk.matmul(&Features::Dense(x.clone()), &cw); // scale 2
        let extra = dense(2, 2, 24);
        let cextra = pk.encrypt_at_scale(&extra, 2, &obf);
        let sum = pk.add(&prod, &cextra);
        assert!(sk.decrypt(&sum).approx_eq(&x.matmul(&w).add(&extra), 1e-4));
    }

    #[test]
    fn matmul_with_transposed_ct() {
        // G·⟦W⟧ᵀ via matmul(Features, ⟦W⟧.transpose()): the ∇Z·V_Bᵀ path.
        let (pk, sk, obf) = setup();
        let g = dense(3, 2, 25); // bs × out
        let v = dense(4, 2, 26); // d_e × out
        let cv = pk.encrypt(&v, &obf);
        let out = pk.matmul(&Features::Dense(g.clone()), &cv.transpose());
        assert!(sk.decrypt(&out).approx_eq(&g.matmul_t(&v), 1e-4));
    }

    #[test]
    fn wire_size_positive() {
        let (pk, _, obf) = setup();
        let ct = pk.encrypt(&dense(2, 2, 20), &obf);
        assert!(ct.wire_size() > 4 * 8);
    }

    // ---- packed fast path ------------------------------------------------
    //
    // The contract is *bit-identity*: every packed op must decrypt to
    // exactly the same f64s as its scalar counterpart, not merely
    // approximately. The 256-bit/frac-20 fixture packs 3 slots of 80
    // bits per ciphertext.

    #[test]
    fn packed_encrypt_decrypt_bit_identical_to_scalar() {
        let (pk, sk, obf) = setup();
        let m = dense(3, 4, 30);
        let cs = pk.encrypt(&m, &obf);
        let cp = pk.encrypt_mode(&m, PaillierMode::Packed, &obf);
        assert!(cp.is_packed());
        assert!(!cs.is_packed());
        assert_eq!(sk.decrypt(&cp).data(), sk.decrypt(&cs).data());
        // Packing 4 columns into ceil(4/3)=2 ciphertexts per row beats
        // 4 scalar ciphertexts on the wire.
        assert!(cp.wire_size() < cs.wire_size());
    }

    #[test]
    fn packed_matmul_bit_identical_to_scalar() {
        let (pk, sk, obf) = setup();
        let x = dense(4, 3, 31);
        let w = dense(3, 5, 32);
        let cs = pk.matmul(&Features::Dense(x.clone()), &pk.encrypt(&w, &obf));
        let cp = pk.matmul(
            &Features::Dense(x),
            &pk.encrypt_mode(&w, PaillierMode::Packed, &obf),
        );
        assert!(cp.is_packed());
        assert_eq!(cp.scale(), 2);
        assert_eq!(sk.decrypt(&cp).data(), sk.decrypt(&cs).data());
    }

    #[test]
    fn packed_sparse_matmul_and_t_matmul_bit_identical() {
        let (pk, sk, obf) = setup();
        let mut xd = dense(4, 5, 33);
        for (i, v) in xd.data_mut().iter_mut().enumerate() {
            if i % 2 == 0 {
                *v = 0.0;
            }
        }
        let x = Csr::from_dense(&xd);
        let w = dense(5, 4, 34);
        let cs = pk.matmul(&Features::Sparse(x.clone()), &pk.encrypt(&w, &obf));
        let cp = pk.matmul(
            &Features::Sparse(x.clone()),
            &pk.encrypt_mode(&w, PaillierMode::Packed, &obf),
        );
        assert_eq!(sk.decrypt(&cp).data(), sk.decrypt(&cs).data());

        let support = x.col_support();
        let g = dense(4, 4, 35);
        let gs = pk.t_matmul_support(
            &Features::Sparse(x.clone()),
            &pk.encrypt(&g, &obf),
            &support,
        );
        let gp = pk.t_matmul_support(
            &Features::Sparse(x),
            &pk.encrypt_mode(&g, PaillierMode::Packed, &obf),
            &support,
        );
        assert!(gp.is_packed());
        assert_eq!(sk.decrypt(&gp).data(), sk.decrypt(&gs).data());
    }

    #[test]
    fn packed_add_family_bit_identical() {
        let (pk, sk, obf) = setup();
        let a = dense(2, 4, 36);
        let b = dense(2, 4, 37);
        let (csa, csb) = (pk.encrypt(&a, &obf), pk.encrypt(&b, &obf));
        let cpa = pk.encrypt_mode(&a, PaillierMode::Packed, &obf);
        let cpb = pk.encrypt_mode(&b, PaillierMode::Packed, &obf);
        assert_eq!(
            sk.decrypt(&pk.add(&cpa, &cpb)).data(),
            sk.decrypt(&pk.add(&csa, &csb)).data()
        );
        assert_eq!(
            sk.decrypt(&pk.add_plain(&cpa, &b)).data(),
            sk.decrypt(&pk.add_plain(&csa, &b)).data()
        );

        let delta = dense(2, 4, 38);
        let mut cache_s = pk.encrypt(&dense(4, 4, 39), &obf);
        let mut cache_p = pk.encrypt_mode(&dense(4, 4, 39), PaillierMode::Packed, &obf);
        pk.rows_add_assign(&mut cache_s, &[0, 3], &pk.encrypt(&delta, &obf));
        pk.rows_add_assign(
            &mut cache_p,
            &[0, 3],
            &pk.encrypt_mode(&delta, PaillierMode::Packed, &obf),
        );
        assert_eq!(sk.decrypt(&cache_p).data(), sk.decrypt(&cache_s).data());
    }

    #[test]
    fn packed_lkup_and_select_rows_bit_identical() {
        let (pk, sk, obf) = setup();
        let table = dense(6, 2, 40); // vocab 6, dim 2
        let x = CatBlock::from_local(3, &[3, 3], vec![0, 2, 1, 0, 2, 2]);
        // Embedding tables pack with seg = dim so gathered rows keep
        // chunk alignment after concatenation.
        let cts = pk.encrypt(&table, &obf);
        let ctp = pk.encrypt_mode_seg(&table, 2, PaillierMode::Packed, &obf);
        assert!(ctp.is_packed());
        let es = pk.lkup(&cts, &x);
        let ep = pk.lkup(&ctp, &x);
        assert!(ep.is_packed());
        assert_eq!(sk.decrypt(&ep).data(), sk.decrypt(&es).data());

        let sel_s = cts.select_rows(&[4, 1]);
        let sel_p = ctp.select_rows(&[4, 1]);
        assert_eq!(sk.decrypt(&sel_p).data(), sk.decrypt(&sel_s).data());
    }

    #[test]
    fn packed_falls_back_to_scalar_when_unhelpful() {
        let (pk, _, obf) = setup();
        // One column: nothing to pack together.
        let ct = pk.encrypt_mode(&dense(3, 1, 41), PaillierMode::Packed, &obf);
        assert!(!ct.is_packed());
        // Segment that does not divide cols: alignment impossible.
        let ct = pk.encrypt_mode_seg(&dense(3, 5, 42), 3, PaillierMode::Packed, &obf);
        assert!(!ct.is_packed());
        // Key too small for two slots (128-bit, frac 32 → 104-bit slots).
        let mut rng = rand::rngs::StdRng::seed_from_u64(43);
        let (small_pk, _) = keygen(128, 32, &mut rng);
        let small_obf = Obfuscator::new(&small_pk, ObfMode::Pool(4), 5);
        let ct = small_pk.encrypt_mode(&dense(2, 4, 44), PaillierMode::Packed, &small_obf);
        assert!(!ct.is_packed());
        // Scalar mode never packs.
        let ct = pk.encrypt_mode(&dense(2, 4, 45), PaillierMode::Scalar, &obf);
        assert!(!ct.is_packed());
    }

    #[test]
    #[should_panic(expected = "transpose is unsupported for packed")]
    fn packed_transpose_panics() {
        let (pk, _, obf) = setup();
        let ct = pk.encrypt_mode(&dense(2, 4, 46), PaillierMode::Packed, &obf);
        let _ = ct.transpose();
    }

    #[test]
    #[should_panic(expected = "matmul_ct_wt contracts over the packed axis")]
    fn packed_matmul_ct_wt_panics() {
        let (pk, _, obf) = setup();
        let g = pk.encrypt_mode(&dense(3, 4, 47), PaillierMode::Packed, &obf);
        let _ = pk.matmul_ct_wt(&g, &dense(5, 4, 48));
    }

    #[test]
    fn packed_lkup_bw_bit_identical_to_scalar() {
        // seg = dim: every field slice is whole ciphertexts (here 4
        // columns in ⌈4/3⌉ = 2 chunks), so the scatter multiplies chunks
        // and the result is laid out like a table packed with seg = dim.
        let (pk, sk, obf) = setup();
        let x = CatBlock::from_local(3, &[3, 3], vec![0, 2, 1, 0, 2, 2]);
        let support = x.support();
        let ge = dense(3, 8, 49);
        let scalar = pk.lkup_bw(&pk.encrypt(&ge, &obf), &x, &support, 4);
        let packed = pk.lkup_bw(
            &pk.encrypt_mode_seg(&ge, 4, PaillierMode::Packed, &obf),
            &x,
            &support,
            4,
        );
        assert!(packed.is_packed() && !scalar.is_packed());
        assert_eq!(packed.shape(), (support.len(), 4));
        assert_eq!(sk.decrypt(&packed).data(), sk.decrypt(&scalar).data());
        let table = pk.encrypt_mode_seg(&dense(6, 4, 50), 4, PaillierMode::Packed, &obf);
        assert!(table.select_rows(&[0; 5]).rows_conform(&packed));
    }

    #[test]
    #[should_panic(expected = "pack ⟦∇E⟧ with seg = dim")]
    fn packed_lkup_bw_refuses_a_segment_that_is_not_a_field() {
        let (pk, _, obf) = setup();
        let x = CatBlock::from_local(3, &[3, 3], vec![0, 2, 1, 0, 2, 2]);
        let ge = pk.encrypt_mode(&dense(3, 4, 49), PaillierMode::Packed, &obf);
        let _ = pk.lkup_bw(&ge, &x, &x.support(), 2);
    }

    #[test]
    fn rows_conform_names_what_rows_add_assign_needs() {
        let (pk, _, obf) = setup();
        let m = dense(2, 4, 57);
        let scalar = pk.encrypt(&m, &obf);
        let packed = pk.encrypt_mode(&m, PaillierMode::Packed, &obf);
        let by_two = pk.encrypt_mode_seg(&m, 2, PaillierMode::Packed, &obf);
        assert!(scalar.rows_conform(&scalar.select_rows(&[0])));
        assert!(packed.rows_conform(&packed.select_rows(&[1, 1, 0])));
        assert!(!packed.rows_conform(&scalar) && !scalar.rows_conform(&packed));
        assert!(!packed.rows_conform(&by_two));
        assert!(!scalar.rows_conform(&pk.encrypt_at_scale(&m, 2, &obf)));
        assert!(!scalar.rows_conform(&pk.encrypt(&dense(2, 3, 58), &obf)));
    }

    // ---- the contraction core vs the per-term kernels it replaced --------
    //
    // The contract is *byte-identity*: the multi-exponentiation core must
    // produce exactly the ciphertext limbs of the old kernels, kept here
    // as the reference — one `pow_mont` per term folded into a positive
    // and a negative accumulator, one inversion per output row.

    fn reference_row<'a>(
        pk: &PaillierPk,
        lanes: usize,
        terms: &[(usize, f64)],
        base: impl Fn(usize, usize) -> &'a [u64],
    ) -> Vec<u64> {
        let mut pos = vec![pk.mont.one_mont(); lanes];
        let mut neg: Vec<Option<Vec<u64>>> = vec![None; lanes];
        for &(src, v) in terms {
            let e = codec::encode_exponent(v, pk.frac_bits);
            if e.is_zero() {
                continue;
            }
            for l in 0..lanes {
                let p = pk.mont.pow_mont(base(src, l), &e.mag);
                if e.neg {
                    neg[l] = Some(match neg[l].take() {
                        Some(cur) => pk.mont.mont_mul(&cur, &p),
                        None => p,
                    });
                } else {
                    pos[l] = pk.mont.mont_mul(&pos[l], &p);
                }
            }
        }
        for (l, neg) in neg.iter().enumerate() {
            if let Some(neg) = neg {
                let inv = bf_bigint::mod_inv(&pk.mont.from_mont(neg), &pk.n2)
                    .expect("ciphertexts are units mod n²");
                pos[l] = pk.mont.mont_mul(&pos[l], &pk.mont.to_mont(&inv));
            }
        }
        pos.concat()
    }

    fn paillier(pk: &PublicKey) -> &PaillierPk {
        let PublicKey::Paillier(p) = pk else {
            unreachable!()
        };
        p
    }

    fn reference_matmul(pk: &PublicKey, x: &Features, w: &CtMat) -> CtMat {
        let rows: Vec<Vec<u64>> = (0..x.rows())
            .map(|i| {
                let mut nz = Vec::new();
                for_each_nonzero(x, i, |c, v| nz.push((c, v)));
                reference_row(paillier(pk), w.lanes(), &nz, |c, l| w.ct(c, l))
            })
            .collect();
        w.like(x.rows(), 2, rows.concat())
    }

    fn reference_t_matmul_support(pk: &PublicKey, x: &Dense, g: &CtMat, support: &[u32]) -> CtMat {
        let rows: Vec<Vec<u64>> = support
            .iter()
            .map(|&c| {
                let col: Vec<(usize, f64)> =
                    (0..x.rows()).map(|i| (i, x.get(i, c as usize))).collect();
                reference_row(paillier(pk), g.lanes(), &col, |i, l| g.ct(i, l))
            })
            .collect();
        g.like(support.len(), 2, rows.concat())
    }

    fn reference_matmul_ct_wt(pk: &PublicKey, g: &CtMat, w: &Dense) -> CtMat {
        let rows: Vec<Vec<u64>> = (0..g.rows)
            .flat_map(|i| (0..w.rows()).map(move |e| (i, e)))
            .map(|(i, e)| {
                let terms: Vec<(usize, f64)> = w.row(e).iter().copied().enumerate().collect();
                reference_row(paillier(pk), 1, &terms, |j, _| g.ct(i, j))
            })
            .collect();
        let k = paillier(pk).ct_limbs();
        CtMat::from_paillier_parts(
            g.rows,
            w.rows(),
            2,
            k,
            LaneLayout::OnePerLane,
            rows.concat(),
        )
    }

    /// `rows × cols` whose row `r` follows pattern `r % 6`: 0/1
    /// indicators, real values of mixed sign, all negative, empty,
    /// all `-1` (equal negative exponents, no positive part), and real
    /// values with one column repeated across rows.
    fn patterned(rows: usize, cols: usize, seed: u64) -> Dense {
        let noise = dense(rows, cols, seed);
        let mut m = Dense::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                let v = noise.get(r, c);
                m.set(
                    r,
                    c,
                    match r % 6 {
                        0 => ((r + c) % 2) as f64,
                        1 => v,
                        2 => -v.abs() - 0.25,
                        3 => 0.0,
                        4 => -1.0,
                        _ => 0.5 + ((r * c) % 3) as f64 * v.abs(),
                    },
                );
            }
        }
        m
    }

    #[test]
    fn matmul_bytes_equal_the_per_term_reference() {
        let (pk, _, obf) = setup();
        // 40 rows: the parallel branch runs on any worker count.
        let xd = patterned(40, 6, 50);
        let w = dense(6, 4, 51);
        for x in [
            Features::Dense(xd.clone()),
            Features::Sparse(Csr::from_dense(&xd)),
        ] {
            for mode in [PaillierMode::Scalar, PaillierMode::Packed] {
                let cw = pk.encrypt_mode(&w, mode, &obf);
                assert_eq!(cw.is_packed(), mode == PaillierMode::Packed);
                assert_eq!(pk.matmul(&x, &cw), reference_matmul(&pk, &x, &cw));
            }
        }
    }

    #[test]
    fn t_matmul_support_bytes_equal_the_per_term_reference() {
        let (pk, _, obf) = setup();
        // Patterns run along the columns here: output row s contracts
        // column support[s] of X. 40 support rows: the parallel branch.
        let xd = patterned(40, 6, 52).transpose();
        let g = dense(6, 4, 53);
        let dense_support: Vec<u32> = (0..40).collect();
        let sparse = Csr::from_dense(&xd);
        let sparse_support = sparse.col_support();
        assert!(sparse_support.len() >= 32 && sparse_support.len() < 40);
        for mode in [PaillierMode::Scalar, PaillierMode::Packed] {
            let cg = pk.encrypt_mode(&g, mode, &obf);
            assert_eq!(
                pk.t_matmul_support(&Features::Dense(xd.clone()), &cg, &dense_support),
                reference_t_matmul_support(&pk, &xd, &cg, &dense_support)
            );
            assert_eq!(
                pk.t_matmul_support(&Features::Sparse(sparse.clone()), &cg, &sparse_support),
                reference_t_matmul_support(&pk, &xd, &cg, &sparse_support)
            );
        }
    }

    #[test]
    fn matmul_ct_wt_bytes_equal_the_per_term_reference() {
        let (pk, _, obf) = setup();
        // The core contracts over W's rows: 40 of them for the parallel
        // branch, then a tall ⟦G⟧ against a short W.
        for (g_rows, w_rows) in [(3, 40), (40, 5)] {
            let cg = pk.encrypt(&dense(g_rows, 6, 54), &obf);
            let w = patterned(w_rows, 6, 55);
            assert_eq!(
                pk.matmul_ct_wt(&cg, &w),
                reference_matmul_ct_wt(&pk, &cg, &w)
            );
        }
    }

    /// `rows × cols` of integers in {0, ±1, ±2}, no row empty: every
    /// exponent a multiple of `2^frac_bits`.
    fn integers(rows: usize, cols: usize, seed: u64) -> Dense {
        let noise = dense(rows, cols, seed);
        let mut m = noise.map(|v| (v * 0.7).round().clamp(-2.0, 2.0));
        for r in 0..rows {
            m.set(r, r % cols, 1.0 + (r % 2) as f64);
        }
        m
    }

    #[test]
    fn contractions_equal_the_per_term_reference_on_and_off_the_lanes() {
        // Row counts on both sides of the worker count and of one and
        // two full lane groups; from three rows the patterns carry
        // negative exponents, so a call's products are its rows plus
        // their negative sides and the lane tail moves with them. Every
        // call has five sources: the integer calls past five rows raise
        // the sources to the common `2^frac_bits` and the rest pay it in
        // the chains, and each integer product also comes unscaled and
        // rescaled.
        for pk in crate::keys::fixed_keys() {
            let (p, obf) = (paillier(&pk), Obfuscator::new(&pk, ObfMode::Pool(4), 7));
            assert!(p.key_bits < 2048 || p.mont.pow_many_path() == PowMany::Scalar);
            for (rows, integer) in [1, 2, 3, 8, 9, 10, 17]
                .into_iter()
                .flat_map(|rows| [(rows, false), (rows, true)])
            {
                let what = format!("{}-bit key, {rows} rows, integer {integer}", p.key_bits);
                let seed = rows as u64;
                let pattern = |rows, cols, seed| match integer {
                    true => integers(rows, cols, seed),
                    false => patterned(rows, cols, seed),
                };
                let xd = pattern(rows, 5, 60 + seed);
                let integral = |m: &Dense| m.data().iter().all(|v| v.fract() == 0.0);
                let w = pk.encrypt(&dense(5, 2, 61), &obf);
                for x in [
                    Features::Dense(xd.clone()),
                    Features::Sparse(Csr::from_dense(&xd)),
                ] {
                    let got = pk.matmul(&x, &w);
                    let want = reference_matmul(&pk, &x, &w);
                    assert!(got == want, "matmul, {what}");
                    let prod = Product::MatMul { x: &x, w: &w };
                    let unscaled = pk.product_at(prod, Power::Owed).unwrap();
                    assert_eq!(unscaled.is_some(), integral(&xd), "{what}");
                    if let Some(u) = unscaled {
                        assert_eq!(u.scale(), 1);
                        assert!(pk.rescale(&u, 2) == want, "rescaled matmul, {what}");
                    }
                }
                let xt = pattern(rows, 5, 62 + seed).transpose();
                let g = pk.encrypt(&dense(5, 2, 63), &obf);
                let support: Vec<u32> = (0..rows as u32).collect();
                let xf = Features::Dense(xt.clone());
                let got = pk.t_matmul_support(&xf, &g, &support);
                let want = reference_t_matmul_support(&pk, &xt, &g, &support);
                assert!(got == want, "t_matmul_support, {what}");
                let prod = Product::TMatMulSupport {
                    x: &xf,
                    g: &g,
                    support: &support,
                };
                let unscaled = pk.product_at(prod, Power::Owed).unwrap();
                assert_eq!(unscaled.is_some(), integral(&xt), "{what}");
                if let Some(u) = unscaled {
                    let got = pk.rescale(&u, 2);
                    assert!(got == want, "rescaled t_matmul_support, {what}");
                }
                // W's rows are the exponent rows, and each ⟦g_ij⟧ meets
                // all of them: the shared tables are lent from two rows.
                let cg = pk.encrypt(&dense(2, 5, 64), &obf);
                let wt = pattern(rows, 5, 65 + seed);
                let got = pk.matmul_ct_wt(&cg, &wt);
                assert!(
                    got == reference_matmul_ct_wt(&pk, &cg, &wt),
                    "matmul_ct_wt, {what}"
                );
            }
        }
    }

    #[test]
    fn rescale_keeps_the_value_on_both_layouts() {
        // A scale-1 body raised to scale 2 decrypts to the same f64s,
        // scalar and packed; scale 1 → 1 is the body itself; a Plain
        // body only changes its label.
        let (pk, sk, obf) = setup();
        let m = dense(3, 4, 71);
        for mode in [PaillierMode::Scalar, PaillierMode::Packed] {
            let ct = pk.encrypt_mode(&m, mode, &obf);
            assert_eq!(ct.is_packed(), mode == PaillierMode::Packed);
            let up = pk.rescale(&ct, 2);
            assert_eq!((up.scale(), up.is_packed()), (2, ct.is_packed()));
            assert_eq!(sk.decrypt(&up).data(), sk.decrypt(&ct).data(), "{mode:?}");
            assert!(pk.rescale(&ct, 1) == ct);
        }
        let (ppk, psk) = plain_keys(20);
        let ct = ppk.encrypt(&m, &obf);
        let up = ppk.rescale(&ct, 2);
        assert_eq!((up.scale(), psk.decrypt(&up)), (2, psk.decrypt(&ct)));
        let x = Features::Dense(integers(2, 3, 72));
        let prod = Product::MatMul { x: &x, w: &ct };
        assert!(ppk.product_at(prod, Power::Owed).unwrap().is_none());
    }

    #[test]
    fn encryption_draws_follow_the_element_index() {
        // Entry i takes obfuscator draw `first + i` on any thread
        // schedule: 144 scalar and 72 packed ciphertexts, well past the
        // parallel helpers' serial cut-off of 32, and calls of 1, 7, 8, 9
        // and 17 ciphertexts — a lone one, a partial lane group, a full
        // one and each with a tail — at a 256-bit key (10-limb lanes) and
        // a 1024-bit one (40-limb lanes).
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        let (small, _) = keygen(256, 20, &mut rng);
        let wide = crate::keys::fixed_keys().swap_remove(1);
        let cases = [
            (&small, ObfMode::Pool(8)),
            (&small, ObfMode::Exact),
            (&wide, ObfMode::Pool(8)),
        ];
        let mut shapes = vec![(36, 4)];
        shapes.extend([1, 7, 8, 9, 17].into_iter().flat_map(|n| [(n, 1), (n, 2)]));
        for (pk, mode) in cases {
            let p = paillier(pk);
            let layout = SlotLayout::for_key(p.key_bits, p.frac_bits).unwrap();
            let obf = Obfuscator::new(pk, mode, 5);
            obf.set_drawn(3);
            for &(rows, cols) in &shapes {
                let what = format!("{}-bit key, {mode:?}, {rows}×{cols}", p.key_bits);
                let m = dense(rows, cols, 56 + rows as u64);
                for scale in [1u8, 2] {
                    let first = obf.drawn();
                    let ct = if scale == 1 {
                        pk.encrypt(&m, &obf)
                    } else {
                        pk.encrypt_at_scale(&m, scale, &obf)
                    };
                    assert_eq!(obf.drawn(), first + (rows * cols) as u64);
                    for (i, &v) in m.data().iter().enumerate() {
                        let enc = codec::encode(v, p.frac_bits, scale, &p.n);
                        let want = p.raw_encrypt(&enc, &obf.draw(p, first + i as u64));
                        let got = ct.ct(i / cols, i % cols);
                        assert_eq!(got, &want[..], "{what}, scale {scale}, entry {i}");
                    }
                }
                if cols % 2 != 0 {
                    continue;
                }
                let (first, chunks) = (obf.drawn(), rows * cols / 2);
                let ct = pk.encrypt_mode_seg(&m, 2, PaillierMode::Packed, &obf);
                assert!(ct.is_packed() && ct.lanes() == cols / 2);
                assert_eq!(obf.drawn(), first + chunks as u64);
                for idx in 0..chunks {
                    let (row, lane) = (idx / ct.lanes(), idx % ct.lanes());
                    let vals = &m.row(row)[lane * 2..][..2];
                    let packed = pack::pack_values(vals, p.frac_bits, 1, layout, &p.n).unwrap();
                    let want = p.raw_encrypt(&packed, &obf.draw(p, first + idx as u64));
                    assert_eq!(ct.ct(row, lane), &want[..], "{what}, chunk {idx}");
                }
            }
        }
    }
}
