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

use bf_mpc::convert::{he2ss_holder, he2ss_peer};
use bf_mpc::shares::random_mask;
use bf_mpc::transport::{Msg, TransportResult};
use bf_paillier::CtMat;
use bf_tensor::{Dense, Features};

use crate::config::GradMode;
use crate::engine::Stage;
use crate::session::{Role, Session};

/// One party's half of a MatMul federated source layer.
pub struct MatMulSource {
    /// `U_own`: this party's piece of its own weight matrix
    /// (`in_own × out`). Never reconstructable into `W` by either side.
    u_own: Dense,
    /// `V_peer`: this party's piece of the *peer's* weight matrix
    /// (`in_peer × out`).
    v_peer: Dense,
    /// `⟦V_own⟧` under the peer's key — the encrypted copy of the piece
    /// of this party's weights that the peer holds.
    enc_v_own: CtMat,
    vel_u: Dense,
    vel_v_peer: Dense,
    out: usize,
    cached_x: Option<Features>,
    cached_support: Vec<u32>,
}

impl MatMulSource {
    /// Joint initialisation (Figure 6, lines 1–4). Both parties invoke
    /// this simultaneously with their own input width.
    pub fn init(sess: &mut Session, in_own: usize, out: usize) -> TransportResult<MatMulSource> {
        // Exchange input widths so each side can create the peer piece.
        sess.ep.send(Msg::U64(in_own as u64))?;
        let in_peer = sess.ep.recv_u64()? as usize;

        let u_own = bf_tensor::init::xavier(&mut sess.rng, in_own, out);
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
        // one packed ciphertext can carry a whole row of `out` columns.
        let enc = sess.encrypt_upload(&v_peer);
        sess.ep.send(Msg::Ct(enc))?;
        let enc_v_own = sess.ep.recv_ct()?;

        Ok(MatMulSource {
            vel_u: Dense::zeros(in_own, out),
            vel_v_peer: Dense::zeros(in_peer, out),
            u_own,
            v_peer,
            enc_v_own,
            out,
            cached_x: None,
            cached_support: Vec::new(),
        })
    }

    /// Output width.
    pub fn out_dim(&self) -> usize {
        self.out
    }

    /// This party's `U` piece (inspection: Figure 9's `X_A·U_A` attack
    /// and Figure 11's share plot read this).
    pub fn u_own(&self) -> &Dense {
        &self.u_own
    }

    /// This party's piece of the peer's weights (inspection).
    pub fn v_peer(&self) -> &Dense {
        &self.v_peer
    }

    // Internal accessors for the SS-top extension (ss_top.rs).
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
        (&mut self.v_peer, &mut self.vel_v_peer)
    }

    pub(crate) fn enc_v_own_mut(&mut self) -> &mut CtMat {
        &mut self.enc_v_own
    }

    /// Persist the layer state (see `docs/SERVING.md` §persistence):
    /// both weight pieces, their momentum buffers and the encrypted
    /// peer-piece cache. Per-batch caches are transient and excluded.
    pub(crate) fn write_state(&self, w: &mut crate::persist::Writer) {
        w.u64(self.out as u64);
        w.dense(&self.u_own);
        w.dense(&self.vel_u);
        w.dense(&self.v_peer);
        w.dense(&self.vel_v_peer);
        w.ctmat(&self.enc_v_own);
    }

    /// Rebuild the layer from persisted state, validating shapes.
    pub(crate) fn read_state(
        r: &mut crate::persist::Reader,
    ) -> crate::persist::PersistResult<MatMulSource> {
        use crate::persist::{check_vel, PersistError};
        let out = r.len_u64()?;
        let u_own = r.dense()?;
        let vel_u = r.dense()?;
        let v_peer = r.dense()?;
        let vel_v_peer = r.dense()?;
        let enc_v_own = r.ctmat()?;
        check_vel(&u_own, &vel_u, "MatMulSource U")?;
        check_vel(&v_peer, &vel_v_peer, "MatMulSource V")?;
        if u_own.cols() != out || v_peer.cols() != out {
            return Err(PersistError::Malformed(format!(
                "MatMulSource: pieces {}×{} / {}×{} do not match out = {out}",
                u_own.rows(),
                u_own.cols(),
                v_peer.rows(),
                v_peer.cols()
            )));
        }
        if enc_v_own.shape() != u_own.shape() {
            return Err(PersistError::Malformed(format!(
                "MatMulSource: ⟦V_own⟧ shape {:?} does not match U_own shape {:?}",
                enc_v_own.shape(),
                u_own.shape()
            )));
        }
        Ok(MatMulSource {
            u_own,
            v_peer,
            enc_v_own,
            vel_u,
            vel_v_peer,
            out,
            cached_x: None,
            cached_support: Vec::new(),
        })
    }

    /// Forward propagation (Figure 6, lines 5–7): returns this party's
    /// share `Z'_⋄`. The model layer aggregates shares via
    /// [`aggregate_a`] / [`aggregate_b`].
    pub fn forward(
        &mut self,
        sess: &mut Session,
        x: &Features,
        train: bool,
    ) -> TransportResult<Dense> {
        let _t = sess.stages.timer(Stage::FedMatmul);
        let z_own = shared_matmul_fw(sess, x, &self.u_own, &self.enc_v_own)?;
        if train {
            self.cached_support = x.col_support();
            self.cached_x = Some(x.clone());
        }
        Ok(z_own)
    }

    /// Backward propagation, Party B side (Figure 6, lines 9–12).
    /// Consumes `∇Z` (which B owns, having run the local top model).
    pub fn backward_b(&mut self, sess: &mut Session, grad_z: &Dense) -> TransportResult<()> {
        assert_eq!(sess.role, Role::B, "backward_b on Party A");
        // Line 9: encrypt ∇Z for Party A.
        let ct_gz = {
            let _t = sess.stages.timer(Stage::EncryptUpload);
            sess.encrypt_upload(grad_z)
        };
        sess.ep.send(Msg::Ct(ct_gz))?;
        let _t = sess.stages.timer(Stage::DecryptUpdate);

        // Line 11 (right): ∇W_B = X_Bᵀ∇Z locally, lazy momentum on the
        // batch support.
        let x = self.cached_x.take().expect("backward before forward");
        let support = std::mem::take(&mut self.cached_support);
        let g = x.t_matmul_support(grad_z, &support);
        let rows: Vec<usize> = support.iter().map(|&c| c as usize).collect();
        sess.sgd()
            .step_sparse_rows(&mut self.u_own, &g, &mut self.vel_u, &rows);

        // Lines 10–12 (assisting A): receive A's support and gradient
        // piece, update V_A, and refresh A's encrypted cache.
        let support_a = sess.ep.recv_support()?;
        let rows_a: Vec<usize> = support_a.iter().map(|&c| c as usize).collect();
        let piece = he2ss_peer(&sess.ep, &sess.own_sk, rows_a.len(), self.out)?; // ∇W_A − φ rows
        match sess.cfg.grad_mode {
            GradMode::SecretShared => {
                let delta = self.step_v_peer(sess, &piece, &rows_a);
                // Same layout decision as the ⟦V_A⟧ cache this refreshes
                // (same key, same `out` columns); A checks that it is.
                sess.ep.send(Msg::Ct(sess.encrypt_upload(&delta)))?;
            }
            GradMode::PlainGradToA { .. } => {
                // Ablation: hand A its gradient piece in plaintext; V_A
                // stays frozen.
                sess.ep.send(Msg::Mat(piece))?;
            }
        }
        Ok(())
    }

    /// Apply this party's piece of a peer-weight gradient with lazy
    /// momentum; returns the applied delta rows (`−η·vel`).
    fn step_v_peer(&mut self, sess: &Session, piece_rows: &Dense, rows: &[usize]) -> Dense {
        super::step_piece(
            &mut self.v_peer,
            &mut self.vel_v_peer,
            piece_rows,
            rows,
            sess.cfg.lr,
            sess.cfg.momentum,
        )
    }

    /// Backward propagation, Party A side (Figure 6, lines 9–12).
    pub fn backward_a(&mut self, sess: &mut Session) -> TransportResult<()> {
        assert_eq!(sess.role, Role::A, "backward_a on Party B");
        let _t = sess.stages.timer(Stage::DecryptUpdate);
        let ct_gz = sess.ep.recv_ct()?;
        let x = self.cached_x.take().expect("backward before forward");
        let support = std::mem::take(&mut self.cached_support);
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
                super::recv_refresh(sess, &mut self.enc_v_own, &rows)?;
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

/// The reusable shared-input matmul forward (Figure 6, lines 5–7),
/// symmetric in both parties: this party holds `x` (its plaintext
/// block), `w_plain` (its piece of the weights) and `w_enc_peer` (the
/// encrypted peer piece, under the peer's key); returns this party's
/// share of `x_A·W_A + x_B·W_B`.
///
/// The Embed-MatMul layer reuses this twice per forward pass, once with
/// `x := ψ_⋄` against `(U_⋄, ⟦V_⋄⟧)` and once with `x := E_~⋄ − ψ_~⋄`
/// against `(V_~⋄, ⟦U_~⋄⟧)` — Figure 7, lines 8–9.
pub(crate) fn shared_matmul_fw(
    sess: &mut Session,
    x: &Features,
    w_plain: &Dense,
    w_enc_peer: &CtMat,
) -> TransportResult<Dense> {
    let prod = sess.peer_pk.matmul(x, w_enc_peer);
    let eps = he2ss_holder(
        &sess.ep,
        &sess.peer_pk,
        &prod,
        sess.cfg.he_mask,
        sess.cfg.paillier_mode,
        &mut sess.rng,
    )?;
    let piece = he2ss_peer(&sess.ep, &sess.own_sk, x.rows(), w_plain.cols())?;
    Ok(x.matmul(w_plain).add(&eps).add(&piece))
}

/// Party A's final forward step: ship `Z'_A` to Party B.
pub fn aggregate_a(sess: &Session, z_own: Dense) -> TransportResult<()> {
    sess.ep.send(Msg::Mat(z_own))
}

/// Party B's final forward step (Figure 6, line 8): `Z = Z'_A + Z'_B`.
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
}
