//! Federated source layers feeding a *secret-shared* top model
//! (paper Appendix B, Figures 13–14).
//!
//! With an SS-based top model, Party B no longer sees `Z` or `∇Z`:
//! the source layer's outputs stay as the sharing `⟨Z'_A, Z'_B⟩` the
//! forward pass already produces, and the backward pass takes a
//! sharing `⟨ε, ∇Z − ε⟩` as input. The gradient path then converts the
//! sharing to ciphertexts with `SS2HE` (Algorithm 2), after which both
//! parties run the *same* symmetric routine: each computes the
//! encrypted gradient of its own weight piece, HE2SS-splits it, and
//! both pieces are updated in the SS manner.
//!
//! As a concrete SS-computable top model this module ships
//! [`SquareLossSsTop`], a linear-output square-loss head whose
//! derivative `∇Z = (Z − y)/bs` is an affine function of the shares —
//! each party computes its derivative piece locally, with the labels
//! folded into Party B's piece only. (Nonlinear SS tops would use
//! SecureML-style piecewise approximations; they plug into the same
//! [`MatMulSource::backward_ss`] interface.)

use bf_mpc::convert::{he2ss_peer, ss2he};
use bf_mpc::transport::{Msg, TransportResult};
use bf_paillier::Product;
use bf_tensor::{Dense, Features};

use crate::engine::Stage;
use crate::session::Session;
use crate::source::matmul::MatMulSource;
use crate::source::recv_refresh;

impl MatMulSource {
    /// Forward pass for an SS top model (Figure 13, line 1): identical
    /// joint computation, but this party's share `Z'_⋄` is *returned*
    /// instead of aggregated at B.
    pub fn forward_ss(
        &mut self,
        sess: &mut Session,
        x: &Features,
        train: bool,
    ) -> TransportResult<Dense> {
        // The shares produced by the standard forward already form an
        // additive sharing of Z; simply don't aggregate.
        self.forward(sess, x, train)
    }

    /// Backward pass for an SS top model (Figure 13, lines 2–8),
    /// symmetric in both parties: `grad_piece` is this party's share of
    /// `∇Z`.
    pub fn backward_ss(&mut self, sess: &mut Session, grad_piece: &Dense) -> TransportResult<()> {
        let _t = sess.stages.timer(Stage::SsTop);
        // Line 3: ⟨ε, ∇Z−ε⟩ → ⟦∇Z⟧ under the *peer's* key at each side,
        // in the session's ciphertext layout (same on both parties).
        let ct_gz = ss2he(
            &sess.ep,
            &sess.own_pk,
            &sess.obf,
            &sess.peer_pk,
            grad_piece,
            sess.cfg.paillier_mode,
        )?;

        let x = self.cached_x.take().expect("backward before forward");
        let support = std::mem::take(&mut self.cached_support);
        sess.ep.send(Msg::Support(support.clone()))?;
        let peer_support = sess.ep.recv_support()?;

        // Lines 4–5: ⟦∇W_own⟧ = Xᵀ⟦∇Z⟧ on the support, HE2SS.
        let phi = sess.he2ss(Product::TMatMulSupport {
            x: &x,
            g: &ct_gz,
            support: &support,
        })?;
        // ∇W_peer − φ_peer rows
        let piece = he2ss_peer(&sess.ep, &sess.own_sk, peer_support.len(), self.out)?;

        // Lines 6–8: update U_own by φ; update V_peer by the received
        // piece and refresh the peer's ⟦V_peer⟧ cache.
        let rows: Vec<usize> = support.iter().map(|&c| c as usize).collect();
        sess.sgd()
            .step_sparse_rows(&mut self.u_own, &phi, &mut self.vel_u, &rows);
        let peer_rows: Vec<usize> = peer_support.iter().map(|&c| c as usize).collect();
        let link = &mut self.pieces[0];
        let (v, vel) = (&mut link.v_peer, &mut link.vel_v_peer);
        let delta = sess.sgd().step_sparse_rows(v, &piece, vel, &peer_rows);
        // Same layout decision as the ⟦V⟧ cache this refreshes.
        sess.ep.send(Msg::Ct(sess.encrypt_upload(&delta)))?;
        recv_refresh(sess, &mut link.enc_v_own, &rows)
    }
}

/// A square-loss, linear-output top model computable over secret
/// shares: `loss = ‖Z − y‖² / (2·bs)`, `∇Z = (Z − y)/bs`.
pub struct SquareLossSsTop;

impl SquareLossSsTop {
    /// Party A's derivative share: `ε = Z'_A / bs`.
    pub fn grad_piece_a(z_share: &Dense) -> Dense {
        z_share.scale(1.0 / z_share.rows() as f64)
    }

    /// Party B's derivative share: `(Z'_B − y)/bs` (labels enter only
    /// here, so only B touches them).
    pub fn grad_piece_b(z_share: &Dense, y: &[f64]) -> Dense {
        assert_eq!(z_share.rows(), y.len());
        let bs = y.len() as f64;
        let mut g = z_share.clone();
        for (i, &t) in y.iter().enumerate() {
            let cur = g.get(i, 0);
            g.set(i, 0, (cur - t) / bs);
        }
        g
    }

    /// The (experimenter-side) reference loss given reconstructed Z.
    pub fn loss(z: &Dense, y: &[f64]) -> f64 {
        let bs = y.len() as f64;
        z.data()
            .iter()
            .zip(y)
            .map(|(&z, &t)| (z - t) * (z - t))
            .sum::<f64>()
            / (2.0 * bs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FedConfig;
    use crate::session::run_pair;
    use rand::SeedableRng;

    fn rand_dense(rows: usize, cols: usize, seed: u64) -> Dense {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        bf_tensor::init::uniform(&mut rng, rows, cols, 1.0)
    }

    /// Train a 1-output least-squares model with the SS top: neither
    /// party ever sees Z or ∇Z in plaintext.
    fn train_ss(
        cfg: &FedConfig,
        x_a: Features,
        x_b: Features,
        y: Vec<f64>,
        steps: usize,
    ) -> (MatMulSource, MatMulSource, f64) {
        let ina = x_a.cols();
        let inb = x_b.cols();
        let y_b = y.clone();
        let (a, (b, final_loss)) = run_pair(
            cfg,
            55,
            move |mut sess| {
                let mut layer = MatMulSource::init(&mut sess, ina, 1).unwrap();
                for _ in 0..steps {
                    let z_share = layer.forward_ss(&mut sess, &x_a, true).unwrap();
                    let g = SquareLossSsTop::grad_piece_a(&z_share);
                    layer.backward_ss(&mut sess, &g).unwrap();
                }
                // Inference: reveal the final prediction share to B
                // (the model output is B's to learn).
                let z_share = layer.forward_ss(&mut sess, &x_a, false).unwrap();
                sess.ep.send(Msg::Mat(z_share)).unwrap();
                layer
            },
            move |mut sess| {
                let mut layer = MatMulSource::init(&mut sess, inb, 1).unwrap();
                for _ in 0..steps {
                    let z_share = layer.forward_ss(&mut sess, &x_b, true).unwrap();
                    let g = SquareLossSsTop::grad_piece_b(&z_share, &y_b);
                    layer.backward_ss(&mut sess, &g).unwrap();
                }
                let z_share = layer.forward_ss(&mut sess, &x_b, false).unwrap();
                let z = z_share.add(&sess.ep.recv_mat().unwrap());
                (layer, SquareLossSsTop::loss(&z, &y_b))
            },
        );
        (a, b, final_loss)
    }

    #[test]
    fn ss_top_training_reduces_square_loss() {
        let cfg = FedConfig::plain();
        let x_a = Features::Dense(rand_dense(32, 3, 1));
        let x_b = Features::Dense(rand_dense(32, 4, 2));
        // Linear target across both parties' features.
        let y: Vec<f64> = (0..32)
            .map(|i| {
                let xa = match &x_a {
                    Features::Dense(d) => d.row(i)[0] - 0.5 * d.row(i)[2],
                    _ => unreachable!(),
                };
                let xb = match &x_b {
                    Features::Dense(d) => 0.8 * d.row(i)[1],
                    _ => unreachable!(),
                };
                xa + xb
            })
            .collect();
        let (_, _, loss_short) = train_ss(&cfg, x_a.clone(), x_b.clone(), y.clone(), 5);
        let (_, _, loss_long) = train_ss(&cfg, x_a, x_b, y, 80);
        assert!(loss_long < loss_short * 0.5, "{loss_short} -> {loss_long}");
        assert!(loss_long < 0.05, "final loss {loss_long}");
    }

    #[test]
    fn a_delta_in_another_layout_than_the_cache_is_a_typed_error() {
        // B follows Figure 13 to its last line and then refreshes A's
        // packed ⟦V⟧ cache (two columns: one ciphertext a row) with a
        // scalar delta. A's backward must return the refusal.
        use bf_mpc::transport::TransportError;
        use bf_mpc::wire::WireError;

        let cfg = FedConfig::paillier_test();
        let (a, ()) = run_pair(
            &cfg,
            56,
            |mut sess| {
                let mut layer = MatMulSource::init(&mut sess, 2, 2).unwrap();
                let x = Features::Dense(rand_dense(4, 2, 5));
                let z = layer.forward_ss(&mut sess, &x, true).unwrap();
                layer.backward_ss(&mut sess, &SquareLossSsTop::grad_piece_a(&z))
            },
            |mut sess| {
                let mut layer = MatMulSource::init(&mut sess, 2, 2).unwrap();
                let x = Features::Dense(rand_dense(4, 2, 6));
                let z = layer.forward_ss(&mut sess, &x, true).unwrap();
                let (own_pk, peer_pk, mode) = (&sess.own_pk, &sess.peer_pk, sess.cfg.paillier_mode);
                let ct_gz = ss2he(&sess.ep, own_pk, &sess.obf, peer_pk, &z, mode).unwrap();
                let support = std::mem::take(&mut layer.cached_support);
                sess.ep.send(Msg::Support(support.clone())).unwrap();
                let peer_support = sess.ep.recv_support().unwrap();
                let prod = Product::TMatMulSupport {
                    x: &x,
                    g: &ct_gz,
                    support: &support,
                };
                sess.he2ss(prod).unwrap();
                he2ss_peer(&sess.ep, &sess.own_sk, peer_support.len(), 2).unwrap();
                let delta = Dense::zeros(peer_support.len(), 2);
                sess.ep
                    .send(Msg::Ct(sess.own_pk.encrypt(&delta, &sess.obf)))
                    .unwrap();
                sess.ep.recv_ct().unwrap();
            },
        );
        assert!(
            matches!(a, Err(TransportError::Wire(WireError::Malformed(_)))),
            "{a:?}"
        );
    }

    #[test]
    fn ss_top_with_paillier_backend() {
        let cfg = FedConfig::paillier_test();
        let x_a = Features::Dense(rand_dense(8, 2, 3));
        let x_b = Features::Dense(rand_dense(8, 2, 4));
        let y: Vec<f64> = (0..8).map(|i| (i % 2) as f64).collect();
        let (_, _, loss) = train_ss(&cfg, x_a, x_b, y, 12);
        assert!(loss.is_finite());
        assert!(loss < 0.5, "loss {loss}");
    }
}
