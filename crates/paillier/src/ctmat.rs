//! [`CtMat`] — the paper's *CryptoTensor*: a matrix of Paillier
//! ciphertexts with dense and sparse homomorphic kernels.
//!
//! Ciphertexts are stored flat in Montgomery form (`k` limbs each), so
//! homomorphic addition is one `mont_mul`. A Paillier matrix has one
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
//! or indicator row is `nnz − 1` multiplies and `frac_bits` squarings —
//! and runs the exponents that remain along one shared squaring chain
//! ([`bf_bigint::MontCtx::multi_pow_into`]). On CPUs with AVX-512 IFMA
//! eight output rows share one chain, a row per lane
//! ([`bf_bigint::MontCtx::multi_pow_many`]), and the lane groups run in
//! parallel. Negative scalars accumulate apart from positive ones and
//! are resolved by a single modular inversion per kernel call
//! (Montgomery's trick), never a full-width exponentiation per entry.
//! The decrypt-only repack
//! ([`PublicKey::repack`]) does not use it: folding `slots` one-value
//! lanes — or `⌊slots/u⌋` packed rows of `u` slots — into one is a
//! Horner chain of shift `u·slot_bits` per output,
//! [`bf_bigint::MontCtx::fold_many`], eight outputs to a lane group.

use std::collections::BTreeMap;

use bf_bigint::mont::{
    fixed_window_bits, lane_items, window_bits, LaneTerm, PowMany, PowTerm, LANES,
};
use bf_bigint::BigUint;
use bf_tensor::{CatBlock, Dense, Features};
use bf_util::par::{workers, COARSE};
use bf_util::{par_for_each_mut, par_for_each_mut_min, par_map, par_map_min};

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
                let limbs = lane_slab(pk, m, scale, lanes, |idx, p, ct| {
                    obf.encrypt_into(pk, p, first + idx as u64, ct)
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
                let (ca, cb) = (a.cts(), b.cts());
                let limbs = ct_slab(a.rows * ca.lanes, pk.ct_limbs(), |i, ct| {
                    pk.mont.mont_mul_into(ca.nth(i), cb.nth(i), ct)
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
    /// scale), one [`PaillierPk::add_plain_into`] per lane. No fresh
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
                let limbs = lane_slab(pk, p, a.scale, *lanes, |idx, m, ct| {
                    pk.add_plain_into(ca.nth(idx), m, None, ct)
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
    pub fn matmul(&self, x: &Features, w: &CtMat) -> CtMat {
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
                let cw = w.cts();
                w.like(
                    x.rows(),
                    2,
                    contract(pk, cw.lanes, &rows, |c, l| cw.at(c, l)),
                )
            }
            (PublicKey::Plain { frac_bits }, Body::Plain(wv)) => {
                let wd = Dense::from_vec(w.rows, w.cols, wv.clone());
                let xq = quantize_features(x, *frac_bits);
                CtMat {
                    rows: x.rows(),
                    cols: w.cols,
                    scale: 2,
                    body: Body::Plain(xq.matmul(&wd).data().to_vec()),
                }
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
    pub fn t_matmul_support(&self, x: &Features, g: &CtMat, support: &[u32]) -> CtMat {
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
                let cg = g.cts();
                g.like(
                    support.len(),
                    2,
                    contract(pk, cg.lanes, &rows, |i, l| cg.at(i, l)),
                )
            }
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
                CtMat {
                    rows: support.len(),
                    cols: g.cols,
                    scale: 2,
                    body: Body::Plain(out.data().to_vec()),
                }
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
                let t = contract(pk, g.rows, &rows, |j, i| cg.at(i, j));
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
    /// and 7). Scales and layouts must match.
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
                for (d, &r) in rows.iter().enumerate() {
                    let cur = limbs[r * stride..][..stride].chunks_exact_mut(*k);
                    for (c, dc) in cur.zip(dlimbs[d * stride..][..stride].chunks_exact(*k)) {
                        let prod = pk.mont.mont_mul(c, dc);
                        c.copy_from_slice(&prod);
                    }
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
    /// `f−1` multiplies, no table. On CPUs with AVX-512 IFMA the chains
    /// run [`bf_bigint::MontCtx::fold_many`], eight outputs to a lane
    /// group, split by [`lane_items`]: a call of more outputs than worker
    /// threads goes to the lanes, but for a lone output past the last
    /// full group. That output, a smaller call, and every output on CPUs
    /// or key widths without a lane kernel, runs one
    /// [`bf_bigint::MontCtx::fold`]; groups and lone outputs share one
    /// parallel section. The arithmetic is exact, so
    /// both give the same bytes. Decrypts bit-identically to `ct` (see
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
        let (mont, shift) = (&pk.mont, u * layout.slot_bits as usize);
        let outputs = sources.div_ceil(fold);
        let on_lanes = match mont.pow_many_path() {
            PowMany::Lanes => lane_items(outputs, workers()),
            PowMany::Scalar => 0,
        };
        // Lane groups of eight outputs first, then one run per output.
        let (grouped, tail) = limbs.split_at((on_lanes * fold * k).min(limbs.len()));
        let groups: Vec<&[u64]> = grouped.chunks(LANES * fold * k).collect();
        let runs: Vec<&[u64]> = tail.chunks(fold * k).collect();
        let packed = par_map_min(COARSE, groups.len() + runs.len(), |i| match groups.get(i) {
            Some(group) => mont.fold_many(group, fold, shift),
            None => mont.fold(runs[i - groups.len()], shift),
        })
        .concat();
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
                // One work item per ciphertext, not per row: an HE2SS
                // reply is a single row of fat chunks. Lanes tile each
                // row in column order, so their outputs tile `vals`.
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
                // that stays below p/2 costs one CRT half. A call the lane
                // groups serve batches its halves, a lone ciphertext past
                // the last full group riding along as a scalar item of the
                // same sections; a smaller one, or any call off the lane
                // path, takes one parallel item per ciphertext.
                let batched =
                    sk.pow_many_path() == PowMany::Lanes && lane_items(outs.len(), workers()) > 0;
                if batched {
                    let batch: Vec<(&[u64], Option<usize>)> = outs
                        .iter()
                        .enumerate()
                        .map(|(idx, out)| (cts.nth(idx), lanes.width(out.len())))
                        .collect();
                    let ms = sk.raw_decrypt_many(&batch);
                    par_for_each_mut(&mut outs, |idx, out| {
                        lanes.decode(&ms[idx], pk, ct.scale, out)
                    });
                } else {
                    par_for_each_mut_min(COARSE, &mut outs, |idx, out| {
                        let m = sk.raw_decrypt(cts.nth(idx), lanes.width(out.len()));
                        lanes.decode(&m, pk, ct.scale, out);
                    });
                }
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

/// `n` ciphertexts of `k` limbs, ciphertext `i` written by `f(i, ct)`:
/// parallel workers fill disjoint slices of one preallocated slab.
fn ct_slab(n: usize, k: usize, f: impl Fn(usize, &mut [u64]) + Sync) -> Vec<u64> {
    let mut limbs = vec![0u64; n * k];
    let mut cts: Vec<&mut [u64]> = limbs.chunks_exact_mut(k).collect();
    par_for_each_mut(&mut cts, |i, ct| f(i, ct));
    limbs
}

/// One ciphertext per lane of `m` in layout `lanes`, lane `idx`
/// (row-major) written by `f(idx, P, ct)` with `P` its values encoded at
/// `scale`.
fn lane_slab(
    pk: &PaillierPk,
    m: &Dense,
    scale: u8,
    lanes: LaneLayout,
    f: impl Fn(usize, &BigUint, &mut [u64]) + Sync,
) -> Vec<u64> {
    let per_row = lanes.per_row(m.cols());
    ct_slab(m.rows() * per_row, pk.ct_limbs(), |idx, ct| {
        let vals = &m.row(idx / per_row)[lanes.span(idx % per_row)];
        let p = lanes
            .encode(vals, pk, scale)
            .expect("value overflows its pack slot");
        f(idx, &p, ct)
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

/// One output row's `(source row, value)` pairs as signed fixed-point
/// exponents; values that round to zero drop out.
fn exponents(
    pk: &PaillierPk,
    pairs: impl IntoIterator<Item = (usize, f64)>,
) -> Vec<(usize, SignedInt)> {
    pairs
        .into_iter()
        .map(|(src, v)| (src, codec::encode_exponent(v, pk.frac_bits)))
        .filter(|(_, e)| !e.is_zero())
        .collect()
}

/// Limb budget (32 MiB) for the window tables one lane of a kernel call
/// shares across its rows; a call that would need more builds them per
/// row.
const SHARED_TABLE_LIMBS: usize = 1 << 22;

/// The contraction core under every plain×cipher product: a flat
/// `rows × lanes` slab whose ciphertext `(r, l)` is
/// `Π_t base(src_t, l)^{e_t}` over the terms `(src_t, e_t)` of `rows[r]`
/// (exponents non-zero).
///
/// Each row is two products, its positive and its negative terms, and
/// all negative accumulators of the call are inverted together — one
/// `mod_inv`, not one per row. Within a product equal exponents are
/// grouped and raised once, the rest share one squaring chain. A base
/// that meets table-worthy exponents in several rows gets one window
/// table per lane for the whole call.
///
/// On CPUs with AVX-512 IFMA and key widths with a lane kernel, the
/// products of each lane run [`bf_bigint::MontCtx::multi_pow_many`],
/// eight to a lane group and the groups in parallel, split by
/// [`lane_items`]: the call's bases enter the lane form once, and the
/// products, longest first, fill the lanes so a group's padded runs stay
/// short. A call of no more products than worker threads, a lone
/// product past the last full group, other CPUs and other widths run one
/// [`bf_bigint::MontCtx::multi_pow_into`] per product, the reference.
/// The arithmetic is exact, so both give the same bytes. Every item of
/// its parallel sections is a whole multi-exponentiation or a group of
/// them, so they split from [`COARSE`] items up.
fn contract<'a>(
    pk: &PaillierPk,
    lanes: usize,
    rows: &[Vec<(usize, SignedInt)>],
    base: impl Fn(usize, usize) -> &'a [u64] + Sync,
) -> Vec<u64> {
    let mont = &pk.mont;
    let k = mont.limb_count();
    let stride = lanes * k;
    if stride == 0 {
        return Vec::new();
    }
    // The products: every row's positive side, then the negative side of
    // each row that has one.
    let mut items: Vec<(usize, bool)> = (0..rows.len()).map(|r| (r, false)).collect();
    items.extend(
        (0..rows.len())
            .filter(|&r| rows[r].iter().any(|(_, e)| e.neg))
            .map(|r| (r, true)),
    );
    let terms = |i: usize| {
        let (r, negative) = items[i];
        rows[r].iter().filter(move |(_, e)| e.neg == negative)
    };
    let on_lanes = mont
        .lane_limb_count()
        .map_or(0, |_| lane_items(items.len(), workers()));

    // Per source row: how many output rows raise it to an exponent that
    // wants a table, and the widest such exponent (bits, set bits).
    let mut meets: BTreeMap<usize, (usize, usize, usize)> = BTreeMap::new();
    for (src, e) in rows.iter().flatten() {
        let ones = e.mag.count_ones();
        if window_bits(e.mag.bits(), ones, 1) > 1 {
            let m = meets.entry(*src).or_default();
            *m = (m.0 + 1, m.1.max(e.mag.bits()), m.2.max(ones));
        }
    }
    // A lane table holds every power below 2^w in the lane radix, a
    // scalar one the odd powers.
    let lane_limbs = mont.lane_limb_count().filter(|_| on_lanes > 0);
    let mut shared: Vec<(usize, u32)> = meets
        .into_iter()
        .filter(|&(_, (uses, ..))| uses > 1)
        .map(|(src, (uses, bits, ones))| match lane_limbs {
            Some(_) => (src, fixed_window_bits(bits, uses)),
            None => (src, window_bits(bits, ones, uses)),
        })
        .collect();
    let table_limbs = |w: u32| match lane_limbs {
        Some(l) => l * ((1 << w) - 1),
        None => k << (w - 1),
    };
    if shared.iter().map(|&(_, w)| table_limbs(w)).sum::<usize>() > SHARED_TABLE_LIMBS {
        shared.clear();
    }

    // The lanes take the longest products first, the scalar chains the
    // rest; on the lanes a base is its index among the call's sources.
    let mut order: Vec<usize> = (0..items.len()).collect();
    let mut sources: Vec<usize> = Vec::new();
    let mut lane_terms: Vec<Vec<LaneTerm>> = Vec::new();
    if on_lanes > 0 {
        order.sort_by_key(|&i| std::cmp::Reverse(terms(i).count()));
        sources = rows.iter().flatten().map(|(src, _)| *src).collect();
        sources.sort_unstable();
        sources.dedup();
        let index = |src: &usize| sources.binary_search(src).expect("a source of the call");
        lane_terms = order[..on_lanes]
            .iter()
            .map(|&i| {
                let t = terms(i).map(|(src, e)| LaneTerm {
                    base: index(src),
                    exp: &e.mag,
                });
                t.collect()
            })
            .collect();
        shared = shared.iter().map(|&(src, w)| (index(&src), w)).collect();
    }
    let scalar_order = &order[on_lanes..];

    let mut res = vec![0u64; items.len() * stride];
    // One lane at a time, so the shared tables never hold more than one
    // lane's worth of bases.
    for l in 0..lanes {
        // The scalar chains borrow the shared tables only when they run
        // the whole call; lane groups and scalar products share one
        // parallel section.
        let bases = (on_lanes > 0).then(|| {
            let entered: Vec<&[u64]> = sources.iter().map(|&s| base(s, l)).collect();
            mont.lane_bases(&entered, &shared).expect("the lane path")
        });
        let tables = match bases {
            None => par_map_min(COARSE, shared.len(), |s| {
                mont.odd_powers(base(shared[s].0, l), shared[s].1)
            }),
            Some(_) => Vec::new(),
        };
        let table = |src: &usize| match bases {
            None => shared
                .binary_search_by_key(src, |s| s.0)
                .ok()
                .map(|s| &tables[s]),
            Some(_) => None,
        };
        let groups: Vec<&[Vec<LaneTerm>]> = lane_terms.chunks(LANES).collect();
        let got = par_map_min(COARSE, groups.len() + scalar_order.len(), |i| {
            let Some(group) = groups.get(i) else {
                let terms: Vec<PowTerm> = terms(scalar_order[i - groups.len()])
                    .map(|(src, e)| PowTerm {
                        base: base(*src, l),
                        exp: &e.mag,
                        table: table(src),
                    })
                    .collect();
                let mut out = vec![0u64; k];
                mont.multi_pow_into(&terms, &mut out);
                return out;
            };
            let products: Vec<&[LaneTerm]> = group.iter().map(|t| &t[..]).collect();
            let mut out = vec![0u64; products.len() * k];
            let bases = bases.as_ref().expect("lane groups run on entered bases");
            mont.multi_pow_many(bases, &products, &mut out);
            out
        })
        .concat();
        for (&i, ct) in order.iter().zip(got.chunks_exact(k)) {
            res[i * stride + l * k..][..k].copy_from_slice(ct);
        }
    }

    // out = pos · neg⁻¹ wherever a row had negative terms.
    let (out, negs) = res.split_at_mut(rows.len() * stride);
    mont.batch_inv_mont(negs);
    let mut tmp = vec![0u64; k];
    for (&(r, _), inv) in items[rows.len()..].iter().zip(negs.chunks_exact(stride)) {
        let pos = out[r * stride..(r + 1) * stride].chunks_exact_mut(k);
        for (ct, inv) in pos.zip(inv.chunks_exact(k)) {
            mont.mont_mul_into(ct, inv, &mut tmp);
            ct.copy_from_slice(&tmp);
        }
    }
    res.truncate(rows.len() * stride);
    res
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::{keygen, plain_keys};
    use crate::pack;
    use crate::{ObfMode, Obfuscator};
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

    /// Public keys on fixed prime factors (drawn once by `gen_prime`):
    /// 512 and 1024 bits, whose `n²` the lane kernel serves (20 and 40
    /// 52-bit limbs) on CPUs with AVX-512 IFMA, and 2048 bits, whose `n²`
    /// (79) it does not, so the scalar chains run there on every CPU.
    fn fixed_keys() -> Vec<PublicKey> {
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
                PublicKey::Paillier(std::sync::Arc::new(PaillierPk::new(n, 32).unwrap()))
            })
            .collect()
    }

    #[test]
    fn contractions_equal_the_per_term_reference_on_and_off_the_lanes() {
        // Row counts on both sides of the worker count and of one and
        // two full lane groups; from three rows the patterns carry
        // negative exponents, so a call's products are its rows plus
        // their negative sides and the lane tail moves with them.
        for pk in fixed_keys() {
            let (p, obf) = (paillier(&pk), Obfuscator::new(&pk, ObfMode::Pool(4), 7));
            assert!(p.key_bits < 2048 || p.mont.pow_many_path() == PowMany::Scalar);
            for rows in [1, 2, 3, 8, 9, 10, 17] {
                let what = format!("{}-bit key, {rows} rows", p.key_bits);
                let seed = rows as u64;
                let xd = patterned(rows, 5, 60 + seed);
                let w = pk.encrypt(&dense(5, 2, 61), &obf);
                for x in [
                    Features::Dense(xd.clone()),
                    Features::Sparse(Csr::from_dense(&xd)),
                ] {
                    let got = pk.matmul(&x, &w);
                    assert!(got == reference_matmul(&pk, &x, &w), "matmul, {what}");
                }
                let xt = patterned(rows, 5, 62 + seed).transpose();
                let g = pk.encrypt(&dense(5, 2, 63), &obf);
                let support: Vec<u32> = (0..rows as u32).collect();
                let got = pk.t_matmul_support(&Features::Dense(xt.clone()), &g, &support);
                let want = reference_t_matmul_support(&pk, &xt, &g, &support);
                assert!(got == want, "t_matmul_support, {what}");
                // W's rows are the exponent rows, and each ⟦g_ij⟧ meets
                // all of them: the shared tables are lent from two rows.
                let cg = pk.encrypt(&dense(2, 5, 64), &obf);
                let wt = patterned(rows, 5, 65 + seed);
                let got = pk.matmul_ct_wt(&cg, &wt);
                assert!(
                    got == reference_matmul_ct_wt(&pk, &cg, &wt),
                    "matmul_ct_wt, {what}"
                );
            }
        }
    }

    #[test]
    fn encryption_draws_follow_the_element_index() {
        // Entry i takes obfuscator draw `first + i` on any thread
        // schedule: 144 scalar and 72 packed ciphertexts, well past the
        // parallel helpers' serial cut-off of 32.
        let m = dense(36, 4, 56);
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        let (pk, _) = keygen(256, 20, &mut rng);
        let p = paillier(&pk);
        let layout = SlotLayout::for_key(p.key_bits, p.frac_bits).unwrap();
        for mode in [ObfMode::Pool(8), ObfMode::Exact] {
            let obf = Obfuscator::new(&pk, mode, 5);
            obf.set_drawn(3);
            for scale in [1u8, 2] {
                let first = obf.drawn();
                let ct = if scale == 1 {
                    pk.encrypt(&m, &obf)
                } else {
                    pk.encrypt_at_scale(&m, scale, &obf)
                };
                assert_eq!(obf.drawn(), first + 144);
                for (i, &v) in m.data().iter().enumerate() {
                    let enc = codec::encode(v, p.frac_bits, scale, &p.n);
                    let want = p.raw_encrypt(&enc, &obf.draw(p, first + i as u64));
                    assert_eq!(ct.ct(i / 4, i % 4), &want[..], "{mode:?} entry {i}");
                }
            }
            let first = obf.drawn();
            let ct = pk.encrypt_mode_seg(&m, 2, PaillierMode::Packed, &obf);
            assert!(ct.is_packed() && ct.lanes() == 2);
            assert_eq!(obf.drawn(), first + 72);
            for idx in 0..72 {
                let vals = &m.row(idx / 2)[idx % 2 * 2..][..2];
                let packed = pack::pack_values(vals, p.frac_bits, 1, layout, &p.n).unwrap();
                let want = p.raw_encrypt(&packed, &obf.draw(p, first + idx as u64));
                assert_eq!(ct.ct(idx / 2, idx % 2), &want[..], "{mode:?} chunk {idx}");
            }
        }
    }
}
