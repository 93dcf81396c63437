//! [`CtMat`] — the paper's *CryptoTensor*: a matrix of Paillier
//! ciphertexts with dense and sparse homomorphic kernels.
//!
//! Ciphertexts are stored flat in Montgomery form (`k` limbs each), so
//! homomorphic addition is one `mont_mul`, and every plain×cipher
//! product (`X·⟦W⟧`, `Xᵀ·⟦G⟧`, `⟦G⟧·Wᵀ`, scalar or packed) is a matrix
//! of multi-exponentiations `Π_t ⟦c_t⟧^{e_t}` evaluated by one core,
//! `contract`. Per output it multiplies together the ciphertexts that
//! share a fixed-point exponent and raises the product once — a one-hot
//! or indicator row is `nnz − 1` multiplies and `frac_bits` squarings —
//! and runs the exponents that remain along one shared squaring chain
//! ([`bf_bigint::MontCtx::multi_pow_into`]). Negative scalars accumulate
//! apart from positive ones and are resolved by a single modular
//! inversion per kernel call (Montgomery's trick), never a full-width
//! exponentiation per entry. Workers write disjoint slices of one
//! preallocated limb slab. The decrypt-only repack
//! ([`PublicKey::repack`]) is one more caller of the same core: folding
//! `slots` scalar ciphertexts — or `⌊slots/u⌋` packed rows of `u` slots
//! — into one is a contraction with the exponents `2^{j·u·slot_bits}`.

use std::collections::BTreeMap;

use bf_bigint::mont::{window_bits, PowTerm};
use bf_tensor::{CatBlock, Dense, Features};
use bf_util::par::COARSE;
use bf_util::{par_for_each_mut, par_for_each_mut_min, par_map, par_map_min};

use crate::codec::{self, SignedInt};
use crate::keys::{PaillierPk, PublicKey, SecretKey};
use crate::obf::Obfuscator;
use crate::pack::{self, PackedCtMat, PaillierMode, SlotLayout};

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
    /// Flat Montgomery-form limbs: entry `(i, j)` occupies
    /// `limbs[(i*cols + j)*k .. +k]`.
    Enc { k: usize, limbs: Vec<u64> },
    /// Slot-packed layout: one ciphertext per column chunk (see
    /// [`crate::pack`]).
    Packed(PackedCtMat),
    /// Plain backend.
    Plain(Vec<f64>),
}

/// Borrowed view of a [`CtMat`] body used by the byte codec in
/// [`crate::serial`]. Crate-internal: the wire layout is owned by
/// `serial`, the in-memory layout by this module.
pub(crate) enum BodyView<'a> {
    /// Montgomery-form limbs, `k` per ciphertext.
    Enc {
        /// Limbs per ciphertext.
        k: usize,
        /// Flat row-major limb buffer.
        limbs: &'a [u64],
    },
    /// Slot-packed ciphertexts.
    Packed {
        /// Limbs per ciphertext.
        k: usize,
        /// Slot geometry.
        layout: SlotLayout,
        /// Segment width in columns.
        seg: usize,
        /// Flat row-major chunk limbs.
        limbs: &'a [u64],
    },
    /// Plain-backend values.
    Plain(&'a [f64]),
}

impl CtMat {
    /// Borrow the body for serialization.
    pub(crate) fn body_view(&self) -> BodyView<'_> {
        match &self.body {
            Body::Enc { k, limbs } => BodyView::Enc { k: *k, limbs },
            Body::Packed(p) => BodyView::Packed {
                k: p.k,
                layout: p.layout,
                seg: p.seg,
                limbs: &p.limbs,
            },
            Body::Plain(v) => BodyView::Plain(v),
        }
    }

    /// Rebuild an encrypted matrix from deserialized parts. The caller
    /// (the codec) has already validated `limbs.len() == rows*cols*k`.
    pub(crate) fn from_enc_parts(
        rows: usize,
        cols: usize,
        scale: u8,
        k: usize,
        limbs: Vec<u64>,
    ) -> CtMat {
        debug_assert_eq!(limbs.len(), rows * cols * k);
        CtMat {
            rows,
            cols,
            scale,
            body: Body::Enc { k, limbs },
        }
    }

    /// Rebuild a packed matrix from deserialized parts. The codec has
    /// already validated the chunk geometry and limb count.
    pub(crate) fn from_packed_parts(
        rows: usize,
        cols: usize,
        scale: u8,
        k: usize,
        layout: SlotLayout,
        seg: usize,
        limbs: Vec<u64>,
    ) -> CtMat {
        CtMat {
            rows,
            cols,
            scale,
            body: Body::Packed(PackedCtMat {
                k,
                layout,
                seg,
                limbs,
            }),
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
            Body::Enc { limbs, .. } => limbs.len() * 8,
            // Packed bodies carry a 4-field geometry header on the wire.
            Body::Packed(p) => 32 + p.limbs.len() * 8,
            Body::Plain(v) => v.len() * 8,
        }
    }

    /// True if this is a Plain-backend matrix.
    pub fn is_plain(&self) -> bool {
        matches!(self.body, Body::Plain(_))
    }

    /// True if this matrix uses the slot-packed ciphertext layout.
    pub fn is_packed(&self) -> bool {
        matches!(self.body, Body::Packed(_))
    }

    /// True if `other`'s rows can be added into this matrix's rows
    /// ciphertext by ciphertext: same width, fixed-point scale, backend
    /// and limb count, and for packed bodies the same slot geometry and
    /// segment width — everything [`PublicKey::rows_add_assign`] asserts
    /// except the row count, so a receiver can refuse a peer's delta
    /// instead of panicking on it.
    pub fn rows_conform(&self, other: &CtMat) -> bool {
        self.cols == other.cols
            && self.scale == other.scale
            && match (&self.body, &other.body) {
                (Body::Enc { k: a, .. }, Body::Enc { k: b, .. }) => a == b,
                (Body::Packed(a), Body::Packed(b)) => {
                    a.k == b.k && a.layout == b.layout && a.seg == b.seg
                }
                (Body::Plain(_), Body::Plain(_)) => true,
                _ => false,
            }
    }

    /// Ciphertexts per row: columns, or column chunks when packed.
    fn lanes(&self) -> usize {
        match &self.body {
            Body::Packed(p) => p.chunks_total(self.cols),
            _ => self.cols,
        }
    }

    /// Montgomery limbs of the ciphertext at row `i`, lane `l`.
    fn ct(&self, i: usize, l: usize) -> &[u64] {
        match &self.body {
            Body::Enc { k, limbs } => &limbs[(i * self.cols + l) * k..][..*k],
            Body::Packed(p) => p.entry(self.cols, i, l),
            Body::Plain(_) => unreachable!("no ciphertexts in a Plain matrix"),
        }
    }

    /// A `rows × self.cols` matrix over `limbs` in this one's ciphertext
    /// layout (limb width, packing geometry).
    fn like(&self, rows: usize, scale: u8, limbs: Vec<u64>) -> CtMat {
        let body = match &self.body {
            Body::Enc { k, .. } => Body::Enc { k: *k, limbs },
            Body::Packed(p) => Body::Packed(PackedCtMat {
                k: p.k,
                layout: p.layout,
                seg: p.seg,
                limbs,
            }),
            Body::Plain(_) => unreachable!("no ciphertexts in a Plain matrix"),
        };
        CtMat {
            rows,
            cols: self.cols,
            scale,
            body,
        }
    }

    /// Transposed copy (pure index permutation — no homomorphic work).
    ///
    /// Panics on a packed matrix: slots run along the column axis, so a
    /// transpose would need to re-pack ciphertext contents. A kernel
    /// that needs `⟦W⟧ᵀ` packed asks the key owner for a second upload
    /// (`EmbedSource`'s `⟦V_Bᵀ⟧`) instead.
    pub fn transpose(&self) -> CtMat {
        let body = match &self.body {
            Body::Packed(_) => panic!("transpose is unsupported for packed ciphertexts"),
            Body::Enc { k, limbs } => Body::Enc {
                k: *k,
                limbs: transpose_limbs(limbs, self.rows, self.cols, *k),
            },
            Body::Plain(v) => {
                let mut out = vec![0.0; v.len()];
                for i in 0..self.rows {
                    for j in 0..self.cols {
                        out[j * self.rows + i] = v[i * self.cols + j];
                    }
                }
                Body::Plain(out)
            }
        };
        CtMat {
            rows: self.cols,
            cols: self.rows,
            scale: self.scale,
            body,
        }
    }

    /// Gather a subset of rows.
    pub fn select_rows(&self, rows: &[usize]) -> CtMat {
        let body = match &self.body {
            Body::Packed(p) => {
                let stride = p.chunks_total(self.cols) * p.k;
                let mut out = Vec::with_capacity(rows.len() * stride);
                for &r in rows {
                    out.extend_from_slice(&p.limbs[r * stride..(r + 1) * stride]);
                }
                Body::Packed(PackedCtMat {
                    k: p.k,
                    layout: p.layout,
                    seg: p.seg,
                    limbs: out,
                })
            }
            Body::Enc { k, limbs } => {
                let stride = self.cols * k;
                let mut out = Vec::with_capacity(rows.len() * stride);
                for &r in rows {
                    out.extend_from_slice(&limbs[r * stride..(r + 1) * stride]);
                }
                Body::Enc { k: *k, limbs: out }
            }
            Body::Plain(v) => {
                let mut out = Vec::with_capacity(rows.len() * self.cols);
                for &r in rows {
                    out.extend_from_slice(&v[r * self.cols..(r + 1) * self.cols]);
                }
                Body::Plain(out)
            }
        };
        CtMat {
            rows: rows.len(),
            cols: self.cols,
            scale: self.scale,
            body,
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
    /// single segment (`seg = cols`), falling back to the scalar body
    /// when the key or shape cannot pack (see [`crate::pack`]).
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
        if let (PaillierMode::Packed, PublicKey::Paillier(pk)) = (mode, self) {
            if let Some(layout) = self.slot_layout() {
                // Packing only pays off (and chunk maths only holds) for
                // ≥2-column segments tiling the matrix exactly. The
                // decision depends on shared configuration and shape
                // only, so both parties always agree on the layout.
                if seg >= 2 && m.cols() % seg == 0 {
                    return self.encrypt_packed(pk, m, seg, layout, obf);
                }
            }
        }
        self.encrypt(m, obf)
    }

    /// Packed encryption body: one ciphertext per column chunk.
    fn encrypt_packed(
        &self,
        pk: &PaillierPk,
        m: &Dense,
        seg: usize,
        layout: SlotLayout,
        obf: &Obfuscator,
    ) -> CtMat {
        let k = pk.ct_limbs();
        let proto = PackedCtMat {
            k,
            layout,
            seg,
            limbs: Vec::new(),
        };
        let nchunks = proto.chunks_total(m.cols());
        let first = obf.reserve((m.rows() * nchunks) as u64);
        let limbs = ct_slab(m.rows() * nchunks, k, |idx, ct| {
            let (i, c) = (idx / nchunks, idx % nchunks);
            let col0 = proto.chunk_col0(c);
            let used = proto.used_in_chunk(c);
            let vals = &m.row(i)[col0..col0 + used];
            let p = pack::pack_values(vals, pk.frac_bits, 1, layout, &pk.n)
                .expect("encrypt: value overflows its pack slot");
            ct.copy_from_slice(&pk.raw_encrypt(&p, &obf.draw(pk, first + idx as u64)));
        });
        CtMat {
            rows: m.rows(),
            cols: m.cols(),
            scale: 1,
            body: Body::Packed(PackedCtMat { limbs, ..proto }),
        }
    }

    /// Encrypt a dense matrix at an explicit fixed-point scale (used
    /// when a fresh encryption must be added to a scale-2 product,
    /// e.g. `⟦∇Z·V_Aᵀ⟧` in the Embed-MatMul backward pass).
    pub fn encrypt_at_scale(&self, m: &Dense, scale: u8, obf: &Obfuscator) -> CtMat {
        match self {
            PublicKey::Paillier(pk) => {
                let k = pk.ct_limbs();
                let n = m.rows() * m.cols();
                let data = m.data();
                // Entry i takes draw `first + i`: the serial stream, on
                // any thread schedule.
                let first = obf.reserve(n as u64);
                let limbs = ct_slab(n, k, |i, ct| {
                    let enc = codec::encode(data[i], pk.frac_bits, scale, &pk.n);
                    ct.copy_from_slice(&pk.raw_encrypt(&enc, &obf.draw(pk, first + i as u64)));
                });
                CtMat {
                    rows: m.rows(),
                    cols: m.cols(),
                    scale,
                    body: Body::Enc { k, limbs },
                }
            }
            PublicKey::Plain { frac_bits } => CtMat {
                rows: m.rows(),
                cols: m.cols(),
                scale,
                body: Body::Plain(m.data().iter().map(|&v| quantize(v, *frac_bits)).collect()),
            },
        }
    }

    /// Homomorphic elementwise sum (scales must match).
    pub fn add(&self, a: &CtMat, b: &CtMat) -> CtMat {
        assert_eq!(a.shape(), b.shape(), "ct add shape mismatch");
        assert_eq!(a.scale, b.scale, "ct add scale mismatch");
        match (self, &a.body, &b.body) {
            (PublicKey::Paillier(pk), Body::Enc { .. }, Body::Enc { .. })
            | (PublicKey::Paillier(pk), Body::Packed(_), Body::Packed(_)) => {
                if let (Body::Packed(pa), Body::Packed(pb)) = (&a.body, &b.body) {
                    assert_eq!(pa.layout, pb.layout, "ct add slot layout mismatch");
                    assert_eq!(pa.seg, pb.seg, "ct add segment mismatch");
                }
                let lanes = a.lanes();
                let limbs = ct_slab(a.rows * lanes, pk.ct_limbs(), |i, ct| {
                    let (r, l) = (i / lanes, i % lanes);
                    pk.mont.mont_mul_into(a.ct(r, l), b.ct(r, l), ct)
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
    /// scale; no fresh randomness — privacy is inherited from `ct`).
    pub fn add_plain(&self, a: &CtMat, p: &Dense) -> CtMat {
        assert_eq!(a.shape(), p.shape(), "add_plain shape mismatch");
        match (self, &a.body) {
            (PublicKey::Paillier(pk), Body::Enc { k, .. }) => {
                let k = *k;
                let data = p.data();
                let limbs = ct_slab(a.rows * a.cols, k, |i, ct| {
                    let m = codec::encode(data[i], pk.frac_bits, a.scale, &pk.n);
                    let g = pk.raw_encrypt_deterministic(&m);
                    pk.mont.mont_mul_into(a.ct(i / a.cols, i % a.cols), &g, ct)
                });
                a.like(a.rows, a.scale, limbs)
            }
            (PublicKey::Paillier(pk), Body::Packed(pa)) => {
                let nchunks = pa.chunks_total(a.cols);
                let limbs = ct_slab(a.rows * nchunks, pa.k, |idx, ct| {
                    let (i, c) = (idx / nchunks, idx % nchunks);
                    let col0 = pa.chunk_col0(c);
                    let used = pa.used_in_chunk(c);
                    let vals = &p.row(i)[col0..col0 + used];
                    let m = pack::pack_values(vals, pk.frac_bits, a.scale, pa.layout, &pk.n)
                        .expect("add_plain: value overflows its pack slot");
                    let g = pk.raw_encrypt_deterministic(&m);
                    pk.mont.mont_mul_into(a.ct(i, c), &g, ct)
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
            (PublicKey::Paillier(pk), Body::Enc { .. } | Body::Packed(_)) => {
                // Output row i is Π_c ⟦w_c·⟧^{x_ic}; packed, each lane
                // advances a whole chunk of output columns at once.
                let rows: Vec<_> = (0..x.rows())
                    .map(|i| {
                        let mut nz = Vec::new();
                        for_each_nonzero(x, i, |c, v| nz.push((c, v)));
                        exponents(pk, nz)
                    })
                    .collect();
                w.like(
                    x.rows(),
                    2,
                    contract(pk, w.lanes(), &rows, |c, l| w.ct(c, l)),
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
            (PublicKey::Paillier(pk), Body::Enc { .. } | Body::Packed(_)) => {
                let rows: Vec<_> = coeffs
                    .iter()
                    .map(|list| exponents(pk, list.iter().copied()))
                    .collect();
                g.like(
                    support.len(),
                    2,
                    contract(pk, g.lanes(), &rows, |i, l| g.ct(i, l)),
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
    /// Used for `⟦∇E⟧ = ⟦∇Z⟧·Uᵀ` in the Embed-MatMul backward pass.
    pub fn matmul_ct_wt(&self, g: &CtMat, w: &Dense) -> CtMat {
        assert_eq!(g.cols, w.cols(), "matmul_ct_wt shape mismatch");
        assert_eq!(g.scale, 1, "matmul_ct_wt expects a scale-1 ciphertext");
        assert!(
            !g.is_packed(),
            "matmul_ct_wt contracts over the packed axis; keep ⟦G⟧ scalar"
        );
        match (self, &g.body) {
            (PublicKey::Paillier(pk), Body::Enc { k, .. }) => {
                // ⟦G⟧·Wᵀ = (W·⟦G⟧ᵀ)ᵀ: W's rows are the exponent rows and
                // ⟦G⟧ is read transposed, so each ⟦g_ij⟧ is one base that
                // meets `w.rows()` exponents and builds its table once.
                let rows: Vec<_> = (0..w.rows())
                    .map(|e| exponents(pk, w.row(e).iter().copied().enumerate()))
                    .collect();
                let t = contract(pk, g.rows, &rows, |j, i| g.ct(i, j));
                CtMat {
                    rows: g.rows,
                    cols: w.rows(),
                    scale: 2,
                    body: Body::Enc {
                        k: *k,
                        limbs: transpose_limbs(&t, w.rows(), g.rows, *k),
                    },
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
    /// indices never leave their owner.
    pub fn lkup(&self, table: &CtMat, x: &CatBlock) -> CtMat {
        assert_eq!(table.rows, x.vocab(), "lkup vocab mismatch");
        let dim = table.cols;
        let fields = x.fields();
        match &table.body {
            // Pure limb gather, chunk-wise: each gathered table row is a
            // whole number of segments, so the concatenated output keeps
            // the table's segment alignment.
            Body::Packed(p) => {
                let stride = p.chunks_total(dim) * p.k;
                let mut out = Vec::with_capacity(x.rows() * fields * stride);
                for r in 0..x.rows() {
                    for &g in x.row(r) {
                        let off = g as usize * stride;
                        out.extend_from_slice(&p.limbs[off..off + stride]);
                    }
                }
                CtMat {
                    rows: x.rows(),
                    cols: fields * dim,
                    scale: table.scale,
                    body: Body::Packed(PackedCtMat {
                        k: p.k,
                        layout: p.layout,
                        seg: p.seg,
                        limbs: out,
                    }),
                }
            }
            Body::Enc { k, limbs } => {
                let k = *k;
                let stride = dim * k;
                let mut out = Vec::with_capacity(x.rows() * fields * stride);
                for r in 0..x.rows() {
                    for &g in x.row(r) {
                        let off = g as usize * stride;
                        out.extend_from_slice(&limbs[off..off + stride]);
                    }
                }
                CtMat {
                    rows: x.rows(),
                    cols: fields * dim,
                    scale: table.scale,
                    body: Body::Enc { k, limbs: out },
                }
            }
            Body::Plain(v) => {
                let mut out = Vec::with_capacity(x.rows() * fields * dim);
                for r in 0..x.rows() {
                    for &g in x.row(r) {
                        let off = g as usize * dim;
                        out.extend_from_slice(&v[off..off + dim]);
                    }
                }
                CtMat {
                    rows: x.rows(),
                    cols: fields * dim,
                    scale: table.scale,
                    body: Body::Plain(out),
                }
            }
        }
    }

    /// Embedding backward over encrypted derivatives: scatter-adds each
    /// instance-field slice of `⟦∇E⟧` into the touched table rows.
    /// Output row `s` is `Σ_{(r,f): X[r,f]=support[s]} ∇E[r, f·dim..]`
    /// — only the batch-support rows are materialised (sparse).
    ///
    /// A packed `⟦∇E⟧` must be segmented by field (`seg = dim`, the
    /// layout `lkup` gathers into): a field slice is then whole
    /// ciphertexts, the scatter is the gather run backwards — one
    /// `mont_mul` per chunk — and the result has the table's own layout.
    /// Any other packed segmentation would split a ciphertext between
    /// two table rows and is refused.
    pub fn lkup_bw(&self, grad_e: &CtMat, x: &CatBlock, support: &[u32], dim: usize) -> CtMat {
        assert_eq!(grad_e.cols, x.fields() * dim, "lkup_bw shape mismatch");
        assert_eq!(grad_e.rows, x.rows(), "lkup_bw row mismatch");
        // Ciphertexts per field slice: `dim` columns, or the chunks of
        // one segment.
        let width = match &grad_e.body {
            Body::Packed(p) => {
                assert_eq!(
                    p.seg, dim,
                    "lkup_bw scatters whole field slices; pack ⟦∇E⟧ with seg = dim"
                );
                p.chunks_per_seg()
            }
            _ => dim,
        };
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
            (PublicKey::Paillier(pk), Body::Enc { .. } | Body::Packed(_)) => {
                let rows: Vec<Vec<u64>> = par_map(support.len(), |s| {
                    let mut acc = vec![pk.mont.one_mont(); width]; // ⟦0⟧ = g^0 = 1
                    for &(r, f) in &hits[s] {
                        for (l, a) in acc.iter_mut().enumerate() {
                            *a = pk.mont.mont_mul(a, grad_e.ct(r, f * width + l));
                        }
                    }
                    acc.concat()
                });
                // ⟦∇E⟧'s own layout (limb count, and packed: geometry with
                // seg = dim), one field wide.
                CtMat {
                    cols: dim,
                    ..grad_e.like(support.len(), grad_e.scale, rows.concat())
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
    /// and 7). Scales must match.
    pub fn rows_add_assign(&self, cache: &mut CtMat, rows: &[usize], delta: &CtMat) {
        assert_eq!(rows.len(), delta.rows, "rows_add_assign row mismatch");
        assert_eq!(cache.cols, delta.cols, "rows_add_assign col mismatch");
        assert_eq!(cache.scale, delta.scale, "rows_add_assign scale mismatch");
        match (self, &mut cache.body, &delta.body) {
            (PublicKey::Paillier(pk), Body::Enc { k, limbs }, Body::Enc { .. }) => {
                let k = *k;
                let stride = cache.cols * k;
                for (d, &r) in rows.iter().enumerate() {
                    for j in 0..cache.cols {
                        let prod = {
                            let cur = &limbs[r * stride + j * k..r * stride + (j + 1) * k];
                            pk.mont.mont_mul(cur, delta.ct(d, j))
                        };
                        limbs[r * stride + j * k..r * stride + (j + 1) * k].copy_from_slice(&prod);
                    }
                }
            }
            (PublicKey::Paillier(pk), Body::Packed(pc), Body::Packed(pd)) => {
                assert_eq!(pc.layout, pd.layout, "rows_add_assign layout mismatch");
                assert_eq!(pc.seg, pd.seg, "rows_add_assign segment mismatch");
                let k = pc.k;
                let nchunks = pc.chunks_total(cache.cols);
                let stride = nchunks * k;
                for (d, &r) in rows.iter().enumerate() {
                    for c in 0..nchunks {
                        let prod = {
                            let cur = &pc.limbs[r * stride + c * k..r * stride + (c + 1) * k];
                            pk.mont.mont_mul(cur, delta.ct(d, c))
                        };
                        pc.limbs[r * stride + c * k..r * stride + (c + 1) * k]
                            .copy_from_slice(&prod);
                    }
                }
            }
            (PublicKey::Plain { .. }, Body::Plain(cv), Body::Plain(dv)) => {
                for (d, &r) in rows.iter().enumerate() {
                    for j in 0..cache.cols {
                        cv[r * cache.cols + j] += dv[d * cache.cols + j];
                    }
                }
            }
            _ => panic!("rows_add_assign backend mismatch"),
        }
    }

    /// Fold a matrix that only has to be *decrypted* into a packed
    /// `1 × N` row (`N = rows·cols`, row-major, one segment) with as many
    /// values per ciphertext as the key holds. Two bodies qualify, with
    /// `u` values per source ciphertext and `f = ⌊slots/u⌋` sources per
    /// output:
    ///
    /// - a scalar body (`u = 1`, `f = slots`): every element is a source;
    /// - a packed body whose rows are one chunk of `u = cols ≤ slots/2`
    ///   slots in this key's layout: every row is a source, and the
    ///   result carries `slots = f·u` in its [`SlotLayout`].
    ///
    /// Group `g` becomes `Π_j ⟦P_{g·f+j}⟧^{2^{j·u·slot_bits}}`, a
    /// ciphertext of `Σ_j P_{g·f+j}·2^{j·u·slot_bits}` — the sources'
    /// slots laid end to end — as one row of the contraction core with
    /// single-bit exponents, so the group shares a chain of
    /// `(f−1)·u·slot_bits` squarings and builds no table. Decrypts
    /// bit-identically to `ct` (see [`crate::pack`]).
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
            Body::Enc { k, limbs } => (*k, limbs, 1),
            Body::Packed(p)
                if p.layout == layout && p.seg == ct.cols && ct.cols <= layout.slots / 2 =>
            {
                (p.k, &p.limbs, ct.cols)
            }
            _ => return ct,
        };
        let n = ct.rows * ct.cols;
        let (sources, fold) = (n / u, layout.slots / u);
        if sources < 2 {
            return ct;
        }
        let shifts: Vec<SignedInt> = (0..fold)
            .map(|j| SignedInt {
                mag: bf_bigint::BigUint::one().shl(j * u * layout.slot_bits as usize),
                neg: false,
            })
            .collect();
        let groups: Vec<Vec<(usize, SignedInt)>> = (0..sources)
            .step_by(fold)
            .map(|g| (g..sources).zip(shifts.iter().cloned()).collect())
            .collect();
        let packed = contract(pk, 1, &groups, |src, _| &limbs[src * k..][..k]);
        CtMat {
            rows: 1,
            cols: n,
            scale: ct.scale,
            body: Body::Packed(PackedCtMat {
                k,
                layout: SlotLayout {
                    slots: fold * u,
                    ..layout
                },
                seg: n,
                limbs: packed,
            }),
        }
    }
}

impl SecretKey {
    /// Whether `ct` is a body this key decrypts, or why not: the key's
    /// own backend, for Paillier its ciphertext width, and for a packed
    /// body its slot width with no more slots than the key holds (a
    /// [`PublicKey::repack`]-folded row may carry fewer). What
    /// [`crate::import_ctmat`] accepted is consistent in itself; this is
    /// the half of a peer's claim only the key owner can check, and
    /// [`SecretKey::decrypt`] — which panics on another backend or limb
    /// count, and picks its CRT path from the geometry — runs after it.
    pub fn conforms(&self, ct: &CtMat) -> Result<(), String> {
        let (sk, k) = match (self, &ct.body) {
            (SecretKey::Plain, Body::Plain(_)) => return Ok(()),
            (SecretKey::Plain, _) => return Err("ciphertexts for the Plain backend".into()),
            (SecretKey::Paillier(_), Body::Plain(_)) => {
                return Err("a Plain body for a Paillier key".into())
            }
            (SecretKey::Paillier(sk), Body::Enc { k, .. }) => (sk, *k),
            (SecretKey::Paillier(sk), Body::Packed(p)) => {
                let (pk, claim) = (sk.pk(), p.layout);
                let own = SlotLayout::for_key(pk.key_bits, pk.frac_bits);
                if !own.is_some_and(|l| claim.slot_bits == l.slot_bits && claim.slots <= l.slots) {
                    return Err(format!(
                        "{} slots of {} bits under a {}-bit key (its layout: {own:?})",
                        claim.slots, claim.slot_bits, pk.key_bits
                    ));
                }
                (sk, p.k)
            }
        };
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
            (SecretKey::Paillier(sk), Body::Enc { .. }) => {
                let pk = sk.pk();
                let n = ct.rows * ct.cols;
                let vals: Vec<f64> = par_map_min(COARSE, n, |i| {
                    let m = sk.raw_decrypt(ct.ct(i / ct.cols, i % ct.cols), None);
                    codec::decode(&m, pk.frac_bits, ct.scale, &pk.n, &pk.half_n)
                });
                Dense::from_vec(ct.rows, ct.cols, vals)
            }
            (SecretKey::Paillier(sk), Body::Packed(p)) => {
                // One work item per ciphertext, not per row: an HE2SS
                // reply is a single row of fat chunks. Chunks tile each
                // row in column order, so their outputs tile `vals`.
                let pk = sk.pk();
                let nchunks = p.chunks_total(ct.cols);
                let mut vals = vec![0.0; ct.rows * ct.cols];
                let mut chunks = Vec::with_capacity(ct.rows * nchunks);
                let mut rest = &mut vals[..];
                for idx in 0..ct.rows * nchunks {
                    let (chunk, tail) = rest.split_at_mut(p.used_in_chunk(idx % nchunks));
                    chunks.push(chunk);
                    rest = tail;
                }
                // A chunk's plaintext spans its used slots only, and one
                // that stays below p/2 costs one CRT half.
                par_for_each_mut_min(COARSE, &mut chunks, |idx, chunk| {
                    let bits = chunk.len() * p.layout.slot_bits as usize;
                    let m = sk.raw_decrypt(ct.ct(idx / nchunks, idx % nchunks), Some(bits));
                    pack::unpack_values(
                        &m,
                        pk.frac_bits,
                        ct.scale,
                        p.layout,
                        &pk.n,
                        &pk.half_n,
                        chunk,
                    );
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

/// `n` ciphertexts of `k` limbs, ciphertext `i` written by `f(i, ct)`:
/// parallel workers fill disjoint slices of one preallocated slab.
fn ct_slab(n: usize, k: usize, f: impl Fn(usize, &mut [u64]) + Sync) -> Vec<u64> {
    let mut limbs = vec![0u64; n * k];
    let mut cts: Vec<&mut [u64]> = limbs.chunks_exact_mut(k).collect();
    par_for_each_mut(&mut cts, |i, ct| f(i, ct));
    limbs
}

/// Row-major `rows × cols` ciphertexts of `k` limbs, transposed.
fn transpose_limbs(limbs: &[u64], rows: usize, cols: usize, k: usize) -> Vec<u64> {
    let mut out = vec![0u64; limbs.len()];
    for i in 0..rows {
        for j in 0..cols {
            let src = (i * cols + j) * k;
            let dst = (j * rows + i) * k;
            out[dst..dst + k].copy_from_slice(&limbs[src..src + k]);
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
/// Per output, the positive and the negative terms each run one
/// [`bf_bigint::MontCtx::multi_pow_into`]: equal exponents are grouped
/// and raised once, the rest share one squaring chain. A base that meets
/// table-worthy exponents in several rows gets one window table per lane
/// for the whole call, and all negative accumulators of the call are
/// inverted together — one `mod_inv`, not one per row. Every item of its
/// parallel sections is a whole multi-exponentiation, so they split from
/// [`COARSE`] items up: an 8-row embedding batch uses both cores.
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
    let mut shared: Vec<(usize, u32)> = meets
        .into_iter()
        .filter(|&(_, (uses, ..))| uses > 1)
        .map(|(src, (uses, bits, ones))| (src, window_bits(bits, ones, uses)))
        .collect();
    if shared.iter().map(|&(_, w)| k << (w - 1)).sum::<usize>() > SHARED_TABLE_LIMBS {
        shared.clear();
    }

    let mut out = vec![0u64; rows.len() * stride];
    let mut work: Vec<(&mut [u64], Vec<u64>)> = out
        .chunks_exact_mut(stride)
        .zip(rows)
        .map(|(pos, row)| {
            let negative = row.iter().any(|(_, e)| e.neg);
            (pos, vec![0u64; if negative { stride } else { 0 }])
        })
        .collect();
    // One lane at a time, so the shared tables never hold more than one
    // lane's worth of bases.
    for l in 0..lanes {
        let tables = par_map_min(COARSE, shared.len(), |s| {
            mont.odd_powers(base(shared[s].0, l), shared[s].1)
        });
        par_for_each_mut_min(COARSE, &mut work, |r, (pos, neg)| {
            let side = |negative: bool| -> Vec<PowTerm> {
                let signed = rows[r].iter().filter(|(_, e)| e.neg == negative);
                signed
                    .map(|(src, e)| PowTerm {
                        base: base(*src, l),
                        exp: &e.mag,
                        table: shared
                            .binary_search_by_key(src, |s| s.0)
                            .ok()
                            .map(|s| &tables[s]),
                    })
                    .collect()
            };
            mont.multi_pow_into(&side(false), &mut pos[l * k..(l + 1) * k]);
            if !neg.is_empty() {
                mont.multi_pow_into(&side(true), &mut neg[l * k..(l + 1) * k]);
            }
        });
    }
    let negs: Vec<Vec<u64>> = work.into_iter().map(|(_, neg)| neg).collect();

    // out = pos · neg⁻¹ wherever a row had negative terms.
    let mut inv = negs.concat();
    mont.batch_inv_mont(&mut inv);
    let mut tmp = vec![0u64; k];
    let resolved = out
        .chunks_exact_mut(stride)
        .zip(&negs)
        .filter(|(_, neg)| !neg.is_empty())
        .flat_map(|(pos, _)| pos.chunks_exact_mut(k));
    for (ct, inv) in resolved.zip(inv.chunks_exact(k)) {
        mont.mont_mul_into(ct, inv, &mut tmp);
        ct.copy_from_slice(&tmp);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::{keygen, plain_keys};
    use crate::{ObfMode, Obfuscator};
    use bf_tensor::Csr;
    use rand::SeedableRng;

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
        let need: Vec<usize> = (0..lanes).filter(|&l| neg[l].is_some()).collect();
        let values: Vec<bf_bigint::BigUint> = need
            .iter()
            .map(|&l| pk.mont.from_mont(neg[l].as_ref().unwrap()))
            .collect();
        for (&l, inv) in need.iter().zip(&bf_bigint::batch_mod_inv(&values, &pk.n2)) {
            pos[l] = pk.mont.mont_mul(&pos[l], &pk.mont.to_mont(inv));
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
        CtMat::from_enc_parts(g.rows, w.rows(), 2, k, rows.concat())
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
        for mode in [ObfMode::Pool(8), ObfMode::Exact, ObfMode::FixedBase] {
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
