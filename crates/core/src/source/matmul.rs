//! The MatMul federated source layer (paper Figure 6).
//!
//! Weights are secret-shared as `W_⋄ = U_⋄ + V_⋄`: `U_⋄` lives at the
//! owner, `V_⋄` at the peer, and the owner additionally caches the
//! *encrypted* peer piece `⟦V_⋄⟧` (under the peer's key) so the forward
//! pass costs one HE2SS round instead of an extra communication round.
//!
//! **Forward** (symmetric): each party computes `⟦X_⋄·V_⋄⟧` over the
//! cached encrypted piece, splits it via HE2SS into `⟨ε_⋄, X_⋄V_⋄−ε_⋄⟩`,
//! and assembles `Z'_⋄ = X_⋄U_⋄ + ε_⋄ + (X_~⋄V_~⋄ − ε_~⋄)`. The masks
//! cancel in `Z = Z'_A + Z'_B = X_A·W_A + X_B·W_B` — lossless.
//!
//! **Backward**: Party B encrypts `∇Z`; Party A computes
//! `⟦∇W_A⟧ = X_Aᵀ⟦∇Z⟧` *on the batch's feature support only* (the
//! sparse-efficiency core of Table 5) and HE2SS-splits it. Neither
//! party ever reconstructs `∇W_A`: A updates `U_A` with its piece, B
//! updates `V_A` with the other, and B refreshes A's encrypted cache
//! with the (freshly encrypted) delta. `∇W_B = X_Bᵀ∇Z` is computed by B
//! locally (B owns the labels; Table 2 permits it).
//!
//! **`M` guests** (Appendix C, Algorithm 3): Party B secret-shares its
//! weights into `M+1` pieces, `W_B = U_B + Σ_i V_B(i)` with `V_B(i)`
//! created by the `i`-th Party A, and "lets all Party A's execute the
//! same routines". So a [`MatMulSource`] holds `U_own` once and one
//! peer piece per link — a guest has exactly one, a host has `M` — and
//! the host's forward and backward run the two-party body once per
//! link around a single local `X_B·U_B` and a single local `∇W_B`.

use std::sync::Arc;

use bf_mpc::convert::{he2ss_holder, he2ss_peer};
use bf_mpc::shares::random_mask;
use bf_mpc::transport::{Msg, TransportError, TransportResult};
use bf_paillier::CtMat;
use bf_tensor::{Dense, Features};

use crate::config::GradMode;
use crate::engine::Stage;
use crate::session::{check_link_count, Role, Session};

/// One party's half of a MatMul federated source layer.
pub struct MatMulSource {
    /// `U_own`: this party's piece of its own weight matrix
    /// (`in_own × out`). Never reconstructable into `W` by either side.
    u_own: Dense,
    vel_u: Dense,
    /// One piece per peer link, in link order: exactly one at a guest,
    /// one per guest at the host.
    pieces: Vec<PeerPiece>,
    out: usize,
    cached_x: Option<Features>,
    cached_support: Vec<u32>,
}

/// What this party holds for one peer.
struct PeerPiece {
    /// `V_peer`: this party's piece of the *peer's* weight matrix
    /// (`in_peer × out`).
    v_peer: Dense,
    vel_v_peer: Dense,
    /// `⟦V_own⟧` under the peer's key — the encrypted copy of the piece
    /// of this party's weights that the peer holds.
    enc_v_own: CtMat,
}

impl MatMulSource {
    /// Joint initialisation (Figure 6, lines 1–4; Algorithm 3 for `M`
    /// links). Every party invokes this simultaneously with its own
    /// input width: a guest over its one session, the host over one
    /// `Role::B` session per guest. An empty slice, or a guest session
    /// among several, is a typed [`TransportError::Setup`].
    pub fn init<L: AsMut<[Session]> + ?Sized>(
        links: &mut L,
        in_own: usize,
        out: usize,
    ) -> TransportResult<MatMulSource> {
        let links = links.as_mut();
        if links.is_empty() {
            return Err(TransportError::Setup(
                "MatMulSource needs at least one peer session (M = 0)".into(),
            ));
        }
        let guest = links.iter().position(|s| s.role == Role::A);
        if let Some(i) = guest.filter(|_| links.len() > 1) {
            return Err(TransportError::Setup(format!(
                "MatMulSource fans out over Role::B sessions, but session {i} is Role::A"
            )));
        }
        let mut u_own = None;
        let mut pieces = Vec::with_capacity(links.len());
        for sess in links.iter_mut() {
            // Exchange input widths so each side can create the peer piece.
            sess.ep.send(Msg::U64(in_own as u64))?;
            let in_peer = sess.ep.recv_u64()? as usize;

            // U_own is drawn once, from the first link's stream.
            if u_own.is_none() {
                u_own = Some(bf_tensor::init::xavier(&mut sess.rng, in_own, out));
            }
            // The peer piece this party creates (of the peer's weights).
            let bound = (6.0 / (in_peer + out) as f64).sqrt();
            let v_scale = match (sess.role, sess.cfg.grad_mode) {
                // Figure 9 ablation: B freezes an amplified V_A.
                (Role::B, GradMode::PlainGradToA { v_scale }) => v_scale,
                _ => 0.5,
            };
            let v_peer = random_mask(&mut sess.rng, in_peer, out, bound * v_scale);

            // Send ⟦V_peer⟧ under our own key; receive ⟦V_own⟧ under the
            // peer's key. Uploads take the session's ciphertext layout —
            // one packed ciphertext can carry a whole row of `out`
            // columns — and both keys of a session share that layout,
            // so our own upload is the template for the peer's.
            let enc = sess.encrypt_upload(&v_peer);
            let like = enc.select_rows(&[]);
            sess.ep.send(Msg::Ct(enc))?;
            let enc_v_own = super::recv_upload(sess, in_own, &like)?;
            pieces.push(PeerPiece {
                vel_v_peer: Dense::zeros(in_peer, out),
                v_peer,
                enc_v_own,
            });
        }
        Ok(MatMulSource {
            vel_u: Dense::zeros(in_own, out),
            u_own: u_own.expect("at least one link"),
            pieces,
            out,
            cached_x: None,
            cached_support: Vec::new(),
        })
    }

    /// Output width.
    pub fn out_dim(&self) -> usize {
        self.out
    }

    /// Number of peer links (1 at a guest, `M` at the host).
    pub fn parties(&self) -> usize {
        self.pieces.len()
    }

    /// This party's `U` piece (inspection: Figure 9's `X_A·U_A` attack
    /// and Figure 11's share plot read this).
    pub fn u_own(&self) -> &Dense {
        &self.u_own
    }

    /// This party's piece of the first peer's weights (inspection; the
    /// only peer of a guest or a two-party host).
    pub fn v_peer(&self) -> &Dense {
        self.v_peer_of(0)
    }

    /// This party's piece of the `link`-th peer's weights (inspection:
    /// `W_A(i) = U_A(i) + V_A(i)` reconstructs through the host's).
    pub fn v_peer_of(&self, link: usize) -> &Dense {
        &self.pieces[link].v_peer
    }

    // Internal accessors for the SS-top extension (ss_top.rs), which is
    // a two-party protocol: it works on the first (only) link's piece.
    pub(crate) fn cached_x_mut(&mut self) -> &mut Option<Features> {
        &mut self.cached_x
    }

    pub(crate) fn cached_support_mut(&mut self) -> &mut Vec<u32> {
        &mut self.cached_support
    }

    pub(crate) fn u_own_and_vel_mut(&mut self) -> (&mut Dense, &mut Dense) {
        (&mut self.u_own, &mut self.vel_u)
    }

    pub(crate) fn v_peer_and_vel_mut(&mut self) -> (&mut Dense, &mut Dense) {
        let piece = &mut self.pieces[0];
        (&mut piece.v_peer, &mut piece.vel_v_peer)
    }

    pub(crate) fn enc_v_own_mut(&mut self) -> &mut CtMat {
        &mut self.pieces[0].enc_v_own
    }

    /// Persist the layer state (see `docs/SERVING.md` §persistence):
    /// `U_own` with its momentum buffer, then every link's peer piece,
    /// its momentum buffer and the encrypted own-piece cache, in link
    /// order. The link count is the enclosing model's to record;
    /// per-batch caches are transient and excluded.
    pub(crate) fn write_state(&self, w: &mut crate::persist::Writer) {
        w.u64(self.out as u64);
        w.dense(&self.u_own);
        w.dense(&self.vel_u);
        for piece in &self.pieces {
            w.dense(&piece.v_peer);
            w.dense(&piece.vel_v_peer);
            w.ctmat(&piece.enc_v_own);
        }
    }

    /// Rebuild the layer from persisted state for `links` peer links,
    /// validating shapes.
    pub(crate) fn read_state(
        r: &mut crate::persist::Reader,
        links: usize,
    ) -> crate::persist::PersistResult<MatMulSource> {
        use crate::persist::{check_vel, PersistError};
        let out = r.len_u64()?;
        let u_own = r.dense()?;
        let vel_u = r.dense()?;
        check_vel(&u_own, &vel_u, "MatMulSource U")?;
        if u_own.cols() != out {
            return Err(PersistError::Malformed(format!(
                "MatMulSource: U_own width {} does not match out = {out}",
                u_own.cols()
            )));
        }
        let mut pieces = Vec::new();
        for i in 0..links {
            let v_peer = r.dense()?;
            let vel_v_peer = r.dense()?;
            let enc_v_own = r.ctmat()?;
            check_vel(&v_peer, &vel_v_peer, "MatMulSource V")?;
            if v_peer.cols() != out {
                return Err(PersistError::Malformed(format!(
                    "MatMulSource link {i}: V_peer width {} does not match out = {out}",
                    v_peer.cols()
                )));
            }
            if enc_v_own.shape() != u_own.shape() {
                return Err(PersistError::Malformed(format!(
                    "MatMulSource link {i}: ⟦V_own⟧ shape {:?} does not match U_own shape {:?}",
                    enc_v_own.shape(),
                    u_own.shape()
                )));
            }
            pieces.push(PeerPiece {
                v_peer,
                vel_v_peer,
                enc_v_own,
            });
        }
        Ok(MatMulSource {
            u_own,
            vel_u,
            pieces,
            out,
            cached_x: None,
            cached_support: Vec::new(),
        })
    }

    /// Forward propagation (Figure 6, lines 5–7; Algorithm 3, lines
    /// 12–16): returns this party's share `Z'_⋄` — at the host, its
    /// share against every guest, `X_B·U_B` counted once. The model
    /// layer aggregates shares via [`aggregate_a`] / [`aggregate_b`].
    pub fn forward<L: AsMut<[Session]> + ?Sized>(
        &mut self,
        links: &mut L,
        x: &Features,
        train: bool,
    ) -> TransportResult<Dense> {
        let links = links.as_mut();
        check_link_count(links.len(), self.pieces.len(), "MatMulSource")?;
        let _t = links[0].stages.timer(Stage::FedMatmul);
        let shares = self
            .pieces
            .iter()
            .zip(links.iter_mut())
            .map(|(piece, sess)| peer_product_shares(sess, x, &piece.enc_v_own, self.out))
            .collect::<TransportResult<Vec<_>>>()?;
        let mut z_own = x.matmul(&self.u_own);
        for (eps, piece) in &shares {
            z_own.add_assign(eps);
            z_own.add_assign(piece);
        }
        if train {
            self.cached_support = x.col_support();
            self.cached_x = Some(x.clone());
        }
        Ok(z_own)
    }

    /// Backward propagation, Party B side (Figure 6, lines 9–12;
    /// Algorithm 3, lines 20–31). Consumes `∇Z` (which B owns, having
    /// run the local top model): updates `U_B` locally, once, and
    /// assists every Party A exactly as in the two-party protocol.
    pub fn backward_b<L: AsMut<[Session]> + ?Sized>(
        &mut self,
        links: &mut L,
        grad_z: &Dense,
    ) -> TransportResult<()> {
        let links = links.as_mut();
        check_link_count(links.len(), self.pieces.len(), "MatMulSource")?;
        let stages = Arc::clone(&links[0].stages);
        // Line 9: encrypt ∇Z for every Party A, under that link's key.
        for sess in links.iter() {
            assert_eq!(sess.role, Role::B, "backward_b on Party A");
            let ct_gz = {
                let _t = stages.timer(Stage::EncryptUpload);
                sess.encrypt_upload(grad_z)
            };
            sess.ep.send(Msg::Ct(ct_gz))?;
        }
        let _t = stages.timer(Stage::DecryptUpdate);

        // Line 11 (right): ∇W_B = X_Bᵀ∇Z locally, lazy momentum on the
        // batch support.
        let x = self.cached_x.take().expect("backward before forward");
        let support = std::mem::take(&mut self.cached_support);
        let g = x.t_matmul_support(grad_z, &support);
        let rows: Vec<usize> = support.iter().map(|&c| c as usize).collect();
        links[0]
            .sgd()
            .step_sparse_rows(&mut self.u_own, &g, &mut self.vel_u, &rows);

        // Lines 10–12 (assisting each A): receive A's support and
        // gradient piece, update V_A, and refresh A's encrypted cache.
        for (piece, sess) in self.pieces.iter_mut().zip(links.iter_mut()) {
            let support_a = sess.ep.recv_support()?;
            let rows_a: Vec<usize> = support_a.iter().map(|&c| c as usize).collect();
            let grad_piece = he2ss_peer(&sess.ep, &sess.own_sk, rows_a.len(), self.out)?; // ∇W_A − φ rows
            match sess.cfg.grad_mode {
                GradMode::SecretShared => {
                    let delta = super::step_piece(
                        &mut piece.v_peer,
                        &mut piece.vel_v_peer,
                        &grad_piece,
                        &rows_a,
                        sess.cfg.lr,
                        sess.cfg.momentum,
                    );
                    // Same layout decision as the ⟦V_A⟧ cache this
                    // refreshes (same key, same `out` columns); A
                    // checks that it is.
                    sess.ep.send(Msg::Ct(sess.encrypt_upload(&delta)))?;
                }
                GradMode::PlainGradToA { .. } => {
                    // Ablation: hand A its gradient piece in plaintext;
                    // V_A stays frozen.
                    sess.ep.send(Msg::Mat(grad_piece))?;
                }
            }
        }
        Ok(())
    }

    /// Backward propagation, Party A side (Figure 6, lines 9–12).
    pub fn backward_a(&mut self, sess: &mut Session) -> TransportResult<()> {
        assert_eq!(sess.role, Role::A, "backward_a on Party B");
        let _t = sess.stages.timer(Stage::DecryptUpdate);
        let x = self.cached_x.take().expect("backward before forward");
        let support = std::mem::take(&mut self.cached_support);
        let enc_v_own = &mut self.pieces[0].enc_v_own;
        // ⟦∇Z⟧ is B's `encrypt_upload` of a batch × `out` matrix: the
        // layout of the ⟦V_A⟧ cache (same key, same width).
        let ct_gz = super::recv_upload(sess, x.rows(), enc_v_own)?;
        sess.ep.send(Msg::Support(support.clone()))?;

        // Line 10: ⟦∇W_A⟧ = X_Aᵀ⟦∇Z⟧ on the support, then HE2SS.
        let prod = sess.peer_pk.t_matmul_support(&x, &ct_gz, &support);
        let phi = he2ss_holder(
            &sess.ep,
            &sess.peer_pk,
            &prod,
            sess.cfg.he_mask,
            sess.cfg.paillier_mode,
            &mut sess.rng,
        )?;
        let rows: Vec<usize> = support.iter().map(|&c| c as usize).collect();

        match sess.cfg.grad_mode {
            GradMode::SecretShared => {
                // Line 11: update U_A by φ (lazy momentum on support).
                sess.sgd()
                    .step_sparse_rows(&mut self.u_own, &phi, &mut self.vel_u, &rows);
                // Line 12: refresh ⟦V_A⟧ with B's encrypted delta.
                super::recv_refresh(sess, enc_v_own, &rows)?;
            }
            GradMode::PlainGradToA { .. } => {
                // Ablation: reconstruct ∇W_A in plaintext (insecure by
                // design — this is the attack surface Figure 9 probes).
                let piece = sess.ep.recv_mat()?;
                let full = phi.add(&piece);
                sess.sgd()
                    .step_sparse_rows(&mut self.u_own, &full, &mut self.vel_u, &rows);
            }
        }
        Ok(())
    }
}

/// The ciphertext half of the shared-input matmul (Figure 6, lines
/// 5–6), symmetric in both parties: multiply this party's plaintext
/// block `x` into `w_enc_peer` (the encrypted peer piece of its own
/// weights, under the peer's key, `out` columns wide) and HE2SS-split
/// the product, while assisting the peer's mirror-image split. Returns
/// `(ε, x_peer·V_peer − ε_peer)`: this party's mask and its piece of
/// the peer's product.
pub(crate) fn peer_product_shares(
    sess: &mut Session,
    x: &Features,
    w_enc_peer: &CtMat,
    out: usize,
) -> TransportResult<(Dense, Dense)> {
    let prod = sess.peer_pk.matmul(x, w_enc_peer);
    let eps = he2ss_holder(
        &sess.ep,
        &sess.peer_pk,
        &prod,
        sess.cfg.he_mask,
        sess.cfg.paillier_mode,
        &mut sess.rng,
    )?;
    let piece = he2ss_peer(&sess.ep, &sess.own_sk, x.rows(), out)?;
    Ok((eps, piece))
}

/// The reusable shared-input matmul forward (Figure 6, lines 5–7):
/// [`peer_product_shares`] plus the local product with `w_plain` (this
/// party's piece of the weights); returns this party's share of
/// `x_A·W_A + x_B·W_B`.
///
/// The Embed-MatMul layer uses this twice per forward pass, once with
/// `x := ψ_⋄` against `(U_⋄, ⟦V_⋄⟧)` and once with `x := E_~⋄ − ψ_~⋄`
/// against `(V_~⋄, ⟦U_~⋄⟧)` — Figure 7, lines 8–9.
pub(crate) fn shared_matmul_fw(
    sess: &mut Session,
    x: &Features,
    w_plain: &Dense,
    w_enc_peer: &CtMat,
) -> TransportResult<Dense> {
    let (eps, piece) = peer_product_shares(sess, x, w_enc_peer, w_plain.cols())?;
    Ok(x.matmul(w_plain).add(&eps).add(&piece))
}

/// Party A's final forward step: ship `Z'_A` to Party B.
pub fn aggregate_a(sess: &Session, z_own: Dense) -> TransportResult<()> {
    sess.ep.send(Msg::Mat(z_own))
}

/// Party B's final forward step on one link (Figure 6, line 8):
/// `Z = Z'_A + Z'_B`. A host with several guests folds each link's
/// `Z'_A(i)` into the running sum in turn.
pub fn aggregate_b(sess: &Session, z_own: Dense) -> TransportResult<Dense> {
    let z_a = sess.ep.recv_mat()?;
    Ok(z_own.add(&z_a))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FedConfig;
    use crate::session::run_pair;
    use bf_ml::layers::LinearF;
    use bf_ml::Sgd;
    use bf_tensor::Csr;
    use rand::Rng;
    use rand::SeedableRng;

    fn rand_dense(rows: usize, cols: usize, seed: u64) -> Dense {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        bf_tensor::init::uniform(&mut rng, rows, cols, 1.0)
    }

    fn sparse_features(rows: usize, cols: usize, seed: u64) -> Features {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut triplets = Vec::new();
        for r in 0..rows {
            for c in 0..cols {
                if rng.random::<f64>() < 0.4 {
                    triplets.push((r, c as u32, rng.random::<f64>() * 2.0 - 1.0));
                }
            }
        }
        Features::Sparse(Csr::from_triplets(rows, cols, triplets))
    }

    /// Drive `steps` forward (+ optional backward with the given ∇Z)
    /// rounds on both parties; returns (A's layer, B's layer, last Z).
    fn roundtrip(
        cfg: &FedConfig,
        x_a: Features,
        x_b: Features,
        out: usize,
        grad_z: Option<Dense>,
        steps: usize,
    ) -> (MatMulSource, MatMulSource, Dense) {
        let ina = x_a.cols();
        let inb = x_b.cols();
        let gz_a = grad_z.clone();
        let (a, (b, z)) = run_pair(
            cfg,
            99,
            move |mut sess| {
                let mut layer = MatMulSource::init(&mut sess, ina, out).unwrap();
                for _ in 0..steps {
                    let z = layer.forward(&mut sess, &x_a, gz_a.is_some()).unwrap();
                    aggregate_a(&sess, z).unwrap();
                    if gz_a.is_some() {
                        layer.backward_a(&mut sess).unwrap();
                    }
                }
                // Final forward so the returned Z reflects all updates.
                let z = layer.forward(&mut sess, &x_a, false).unwrap();
                aggregate_a(&sess, z).unwrap();
                layer
            },
            move |mut sess| {
                let mut layer = MatMulSource::init(&mut sess, inb, out).unwrap();
                for _ in 0..steps {
                    let z_own = layer.forward(&mut sess, &x_b, grad_z.is_some()).unwrap();
                    let _ = aggregate_b(&sess, z_own).unwrap();
                    if let Some(g) = &grad_z {
                        layer.backward_b(&mut sess, g).unwrap();
                    }
                }
                let z_own = layer.forward(&mut sess, &x_b, false).unwrap();
                let z = aggregate_b(&sess, z_own).unwrap();
                (layer, z)
            },
        );
        (a, b, z)
    }

    #[test]
    fn forward_is_lossless_paillier() {
        let cfg = FedConfig::paillier_test();
        let x_a = Features::Dense(rand_dense(4, 3, 1));
        let x_b = Features::Dense(rand_dense(4, 5, 2));
        let (a, b, z) = roundtrip(&cfg, x_a.clone(), x_b.clone(), 2, None, 1);
        // Reconstruct W_A = U_A(at A) + V_A(at B), W_B = U_B(at B) + V_B(at A).
        let w_a = a.u_own().add(b.v_peer());
        let w_b = b.u_own().add(a.v_peer());
        let want = x_a.matmul(&w_a).add(&x_b.matmul(&w_b));
        assert!(
            z.approx_eq(&want, 1e-4),
            "max err {}",
            z.sub(&want).max_abs()
        );
    }

    #[test]
    fn forward_is_lossless_sparse_plain() {
        let cfg = FedConfig::plain();
        let x_a = sparse_features(6, 10, 3);
        let x_b = sparse_features(6, 8, 4);
        let (a, b, z) = roundtrip(&cfg, x_a.clone(), x_b.clone(), 3, None, 1);
        let w_a = a.u_own().add(b.v_peer());
        let w_b = b.u_own().add(a.v_peer());
        let want = x_a.matmul(&w_a).add(&x_b.matmul(&w_b));
        assert!(z.approx_eq(&want, 1e-4));
    }

    #[test]
    fn backward_updates_match_plaintext_sgd() {
        // One federated step must equal the plaintext LinearF step on
        // the reconstructed weights.
        let cfg = FedConfig::paillier_test();
        let x_a = sparse_features(5, 6, 5);
        let x_b = Features::Dense(rand_dense(5, 4, 6));
        let grad_z = rand_dense(5, 2, 7).scale(0.1);

        // Capture initial reconstructed weights from an identical run
        // with zero steps... instead run once with no backward:
        let (a0, b0, _) = roundtrip(&cfg, x_a.clone(), x_b.clone(), 2, None, 1);
        let w_a0 = a0.u_own().add(b0.v_peer());
        let w_b0 = b0.u_own().add(a0.v_peer());

        let (a1, b1, _) = roundtrip(&cfg, x_a.clone(), x_b.clone(), 2, Some(grad_z.clone()), 1);
        let w_a1 = a1.u_own().add(b1.v_peer());
        let w_b1 = b1.u_own().add(a1.v_peer());

        // Plaintext reference (same init because run_pair seeds match).
        let opt = Sgd {
            lr: cfg.lr,
            momentum: cfg.momentum,
        };
        let mut ref_a = LinearF::from_weights(w_a0.clone());
        ref_a.forward(&x_a);
        ref_a.backward(&grad_z);
        ref_a.step(&opt);
        let mut ref_b = LinearF::from_weights(w_b0.clone());
        ref_b.forward(&x_b);
        ref_b.backward(&grad_z);
        ref_b.step(&opt);

        assert!(
            w_a1.approx_eq(&ref_a.w, 1e-3),
            "W_A err {}",
            w_a1.sub(&ref_a.w).max_abs()
        );
        assert!(
            w_b1.approx_eq(&ref_b.w, 1e-3),
            "W_B err {}",
            w_b1.sub(&ref_b.w).max_abs()
        );
    }

    #[test]
    fn cached_ciphertext_stays_in_sync() {
        // After several backward steps, A's ⟦V_A⟧ must still decrypt to
        // B's plaintext V_A. We verify indirectly: a forward pass after
        // updates is still lossless.
        let cfg = FedConfig::paillier_test();
        let x_a = Features::Dense(rand_dense(4, 3, 8));
        let x_b = Features::Dense(rand_dense(4, 3, 9));
        let grad_z = rand_dense(4, 2, 10).scale(0.05);
        let (a, b, z) = roundtrip(&cfg, x_a.clone(), x_b.clone(), 2, Some(grad_z), 3);
        let w_a = a.u_own().add(b.v_peer());
        let w_b = b.u_own().add(a.v_peer());
        let want = x_a.matmul(&w_a).add(&x_b.matmul(&w_b));
        assert!(
            z.approx_eq(&want, 1e-3),
            "max err {}",
            z.sub(&want).max_abs()
        );
    }

    #[test]
    fn ablation_mode_freezes_v_and_reconstructs_grad() {
        let cfg = FedConfig::plain().with_grad_mode(GradMode::PlainGradToA { v_scale: 5.0 });
        let x_a = Features::Dense(rand_dense(4, 3, 11));
        let x_b = Features::Dense(rand_dense(4, 3, 12));
        let grad_z = rand_dense(4, 1, 13).scale(0.1);
        let (_, b1, _) = roundtrip(&cfg, x_a.clone(), x_b.clone(), 1, Some(grad_z), 2);
        // V_A frozen: velocity never applied, piece magnitudes large.
        assert!(b1.v_peer().max_abs() > 1.0, "V_A should be amplified");
    }
    // ---- M guests (Appendix C): one host layer over M links ----

    /// Run an M-guest training round: M Party-A threads + B inline.
    fn run_multi(
        cfg: &FedConfig,
        xs_a: Vec<Features>,
        x_b: Features,
        out: usize,
        grad_z: Option<Dense>,
        steps: usize,
    ) -> (Vec<MatMulSource>, MatMulSource, Dense) {
        let mut eps_b = Vec::new();
        let mut handles = Vec::new();
        for (i, x_a) in xs_a.into_iter().enumerate() {
            let (ep_a, ep_b) = bf_mpc::channel_pair();
            eps_b.push(ep_b);
            let cfg_a = cfg.clone();
            let gz = grad_z.clone();
            handles.push(std::thread::spawn(move || {
                let mut sess = Session::handshake(ep_a, cfg_a, Role::A, 1000 + i as u64).unwrap();
                let mut layer = MatMulSource::init(&mut sess, x_a.cols(), out).unwrap();
                for _ in 0..steps {
                    let z = layer.forward(&mut sess, &x_a, gz.is_some()).unwrap();
                    aggregate_a(&sess, z).unwrap();
                    if gz.is_some() {
                        layer.backward_a(&mut sess).unwrap();
                    }
                }
                let z = layer.forward(&mut sess, &x_a, false).unwrap();
                aggregate_a(&sess, z).unwrap();
                layer
            }));
        }
        let mut sessions: Vec<Session> = eps_b
            .into_iter()
            .enumerate()
            .map(|(i, ep)| Session::handshake(ep, cfg.clone(), Role::B, 2000 + i as u64).unwrap())
            .collect();
        let mut layer_b = MatMulSource::init(&mut sessions, x_b.cols(), out).unwrap();
        let mut z = Dense::zeros(0, 0);
        for step in 0..=steps {
            let train = step < steps && grad_z.is_some();
            z = layer_b.forward(&mut sessions, &x_b, train).unwrap();
            for sess in &sessions {
                z = aggregate_b(sess, z).unwrap();
            }
            if train {
                layer_b
                    .backward_b(&mut sessions, grad_z.as_ref().unwrap())
                    .unwrap();
            }
        }
        let layers_a = handles
            .into_iter()
            .map(|h| h.join().expect("party A panicked"))
            .collect();
        (layers_a, layer_b, z)
    }

    /// `Σ_i X_A(i)·W_A(i) + X_B·W_B` over the reconstructed weights:
    /// `W_A(i) = U_A(i) + V_A(i)`, `W_B = U_B + Σ_i V_B(i)`.
    fn multi_reference(
        layers_a: &[MatMulSource],
        layer_b: &MatMulSource,
        xs_a: &[Features],
        x_b: &Features,
    ) -> Dense {
        let mut w_b = layer_b.u_own().clone();
        let mut want = Dense::zeros(x_b.rows(), layer_b.out_dim());
        for (i, la) in layers_a.iter().enumerate() {
            let w_a = la.u_own().add(layer_b.v_peer_of(i));
            want.add_assign(&xs_a[i].matmul(&w_a));
            w_b.add_assign(la.v_peer());
        }
        want.add_assign(&x_b.matmul(&w_b));
        want
    }

    #[test]
    fn three_party_forward_is_lossless() {
        let cfg = FedConfig::plain();
        let xs_a = vec![
            Features::Dense(rand_dense(5, 3, 1)),
            Features::Dense(rand_dense(5, 4, 2)),
        ];
        let x_b = Features::Dense(rand_dense(5, 2, 3));
        let (layers_a, layer_b, z) = run_multi(&cfg, xs_a.clone(), x_b.clone(), 2, None, 1);
        assert_eq!(layer_b.parties(), 2);
        let want = multi_reference(&layers_a, &layer_b, &xs_a, &x_b);
        assert!(
            z.approx_eq(&want, 1e-4),
            "max err {}",
            z.sub(&want).max_abs()
        );
    }

    #[test]
    fn three_party_backward_stays_synchronized() {
        // Two output columns, so the host's uploads to both guests take
        // the session's packed layout.
        let cfg = FedConfig::paillier_test();
        let xs_a = vec![
            Features::Dense(rand_dense(4, 2, 4)),
            Features::Dense(rand_dense(4, 3, 5)),
        ];
        let x_b = Features::Dense(rand_dense(4, 2, 6));
        let grad_z = rand_dense(4, 2, 7).scale(0.1);
        let (layers_a, layer_b, z) = run_multi(&cfg, xs_a.clone(), x_b.clone(), 2, Some(grad_z), 2);
        let want = multi_reference(&layers_a, &layer_b, &xs_a, &x_b);
        assert!(
            z.approx_eq(&want, 1e-3),
            "max err {}",
            z.sub(&want).max_abs()
        );
    }

    // ---- typed setup errors and refused uploads ----

    fn setup_err<T>(res: TransportResult<T>) -> String {
        match res {
            Err(TransportError::Setup(why)) => why,
            Err(other) => panic!("expected TransportError::Setup, got {other:?}"),
            Ok(_) => panic!("expected TransportError::Setup, got Ok"),
        }
    }

    #[test]
    fn zero_links_and_mismatched_slices_are_typed_errors() {
        let none: &mut [Session] = &mut [];
        let why = setup_err(MatMulSource::init(none, 3, 2));
        assert!(why.contains("M = 0"), "unexpected message: {why}");
        let cfg = FedConfig::plain();
        let xs_a = vec![Features::Dense(rand_dense(3, 2, 40))];
        let x_b = Features::Dense(rand_dense(3, 2, 41));
        let (_, mut layer_b, _) = run_multi(&cfg, xs_a, x_b.clone(), 2, None, 1);
        // The layer has one link; an empty session slice must refuse.
        let why = setup_err(layer_b.forward(none, &x_b, false));
        assert!(why.contains("1 guest links"), "unexpected message: {why}");
        let why = setup_err(layer_b.backward_b(none, &Dense::zeros(3, 2)));
        assert!(why.contains("1 guest links"), "unexpected message: {why}");
    }

    #[test]
    fn a_guest_session_among_several_links_is_a_typed_error() {
        let cfg = FedConfig::plain();
        let mut sessions = Vec::new();
        let mut peers = Vec::new();
        for seed in [1u64, 2] {
            let (ep_a, ep_b) = bf_mpc::channel_pair();
            let cfg_b = cfg.clone();
            peers.push(std::thread::spawn(move || {
                Session::handshake(ep_b, cfg_b, Role::B, seed).unwrap();
            }));
            sessions.push(Session::handshake(ep_a, cfg.clone(), Role::A, seed).unwrap());
        }
        // Refused before any protocol message goes out.
        let why = setup_err(MatMulSource::init(&mut sessions, 3, 2));
        assert!(why.contains("Role::A"), "unexpected message: {why}");
        for p in peers {
            p.join().unwrap();
        }
    }

    #[test]
    fn misshapen_uploads_are_refused_before_any_kernel() {
        use bf_mpc::wire::WireError;
        // A packed session, two columns: ⟦V_A⟧ and ⟦∇Z⟧ are one
        // ciphertext per row. The host first plays an init by hand and
        // ships ⟦V_A⟧ one row short; after a genuine init and forward
        // it ships a scalar ⟦∇Z⟧ in place of `backward_b`'s.
        let cfg = FedConfig::paillier_test();
        let x_a = Features::Dense(rand_dense(4, 3, 50));
        let x_b = Features::Dense(rand_dense(4, 4, 52));
        let (results, ()) = run_pair(
            &cfg,
            51,
            move |mut sess| {
                let short = MatMulSource::init(&mut sess, 3, 2).map(drop);
                let mut layer = MatMulSource::init(&mut sess, 3, 2).unwrap();
                let z = layer.forward(&mut sess, &x_a, true).unwrap();
                aggregate_a(&sess, z).unwrap();
                [short, layer.backward_a(&mut sess)]
            },
            |mut sess| {
                sess.ep.send(Msg::U64(4)).unwrap();
                assert_eq!(sess.ep.recv_u64().unwrap(), 3);
                let short = sess.encrypt_upload(&Dense::zeros(2, 2));
                sess.ep.send(Msg::Ct(short)).unwrap();
                sess.ep.recv_ct().unwrap();

                let mut layer = MatMulSource::init(&mut sess, 4, 2).unwrap();
                let z = layer.forward(&mut sess, &x_b, true).unwrap();
                aggregate_b(&sess, z).unwrap();
                let scalar = sess.own_pk.encrypt(&Dense::zeros(4, 2), &sess.obf);
                sess.ep.send(Msg::Ct(scalar)).unwrap();
            },
        );
        for r in results {
            assert!(
                matches!(r, Err(TransportError::Wire(WireError::Malformed(_)))),
                "{r:?}"
            );
        }
    }
}
