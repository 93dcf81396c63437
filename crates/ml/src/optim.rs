//! Momentum SGD (the optimizer used throughout the paper's evaluation:
//! lr 0.05, momentum 0.9).

use bf_tensor::Dense;

/// Per-parameter momentum SGD state.
#[derive(Clone, Debug)]
pub struct Sgd {
    /// Learning rate `η`.
    pub lr: f64,
    /// Momentum coefficient (0 disables).
    pub momentum: f64,
}

impl Sgd {
    /// Standard configuration from the paper's protocol section.
    pub fn paper_default() -> Self {
        Self {
            lr: 0.05,
            momentum: 0.9,
        }
    }

    /// Update `param` in place given `grad`, maintaining `velocity`:
    /// `v ← μ·v + g; w ← w − η·v`.
    pub fn step(&self, param: &mut Dense, grad: &Dense, velocity: &mut Dense) {
        debug_assert_eq!(param.shape(), grad.shape());
        debug_assert_eq!(param.shape(), velocity.shape());
        if self.momentum == 0.0 {
            param.axpy(-self.lr, grad);
            return;
        }
        velocity.scale_assign(self.momentum);
        velocity.add_assign(grad);
        param.axpy(-self.lr, velocity);
    }

    /// Lazy (support-sparse) momentum: only the given rows of the
    /// parameter/velocity are touched, using the *leading rows* of
    /// `grad` (one per entry of `rows`). Returns the applied delta, the
    /// `−η·v` rows, one per entry of `rows`.
    ///
    /// The federated source layers only ever materialise the batch
    /// support rows of a gradient (that is the whole sparse-efficiency
    /// argument of Table 5), so momentum on their weights must be lazy;
    /// the plaintext counterparts use the same rule to stay bit-for-bit
    /// comparable. For dense inputs `rows` covers everything and this
    /// equals classic momentum.
    ///
    /// A source layer steps each secret-shared weight piece with its
    /// gradient piece: with both parties applying `v ← μv + g_piece;
    /// w ← w − ηv` to their pieces, the hidden sum follows exact (lazy)
    /// momentum SGD. The delta is what the piece's holder encrypts to
    /// refresh the peer's ciphertext copy.
    pub fn step_sparse_rows(
        &self,
        param: &mut Dense,
        grad_rows: &Dense,
        velocity: &mut Dense,
        rows: &[usize],
    ) -> Dense {
        debug_assert_eq!(grad_rows.rows(), rows.len());
        debug_assert_eq!(param.shape(), velocity.shape());
        let mut delta = Dense::zeros(rows.len(), param.cols());
        for (gi, &r) in rows.iter().enumerate() {
            let g = grad_rows.row(gi);
            let v = velocity.row_mut(r);
            for (vv, &gg) in v.iter_mut().zip(g) {
                *vv = self.momentum * *vv + gg;
            }
            let p = param.row_mut(r);
            let v = velocity.row(r);
            for ((pp, dd), &vv) in p.iter_mut().zip(delta.row_mut(gi)).zip(v) {
                *pp -= self.lr * vv;
                *dd = -self.lr * vv;
            }
        }
        delta
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_sgd_step() {
        let opt = Sgd {
            lr: 0.1,
            momentum: 0.0,
        };
        let mut w = Dense::from_vec(1, 2, vec![1.0, -1.0]);
        let g = Dense::from_vec(1, 2, vec![0.5, -0.5]);
        let mut v = Dense::zeros(1, 2);
        opt.step(&mut w, &g, &mut v);
        assert!(w.approx_eq(&Dense::from_vec(1, 2, vec![0.95, -0.95]), 1e-12));
    }

    #[test]
    fn momentum_accumulates() {
        let opt = Sgd {
            lr: 1.0,
            momentum: 0.5,
        };
        let mut w = Dense::zeros(1, 1);
        let g = Dense::from_vec(1, 1, vec![1.0]);
        let mut v = Dense::zeros(1, 1);
        opt.step(&mut w, &g, &mut v); // v=1, w=-1
        opt.step(&mut w, &g, &mut v); // v=1.5, w=-2.5
        assert!((w.get(0, 0) + 2.5).abs() < 1e-12);
        assert!((v.get(0, 0) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn converges_on_quadratic() {
        // Minimise (w-3)^2 via its gradient 2(w-3).
        let opt = Sgd {
            lr: 0.1,
            momentum: 0.9,
        };
        let mut w = Dense::zeros(1, 1);
        let mut v = Dense::zeros(1, 1);
        for _ in 0..600 {
            let g = Dense::from_vec(1, 1, vec![2.0 * (w.get(0, 0) - 3.0)]);
            opt.step(&mut w, &g, &mut v);
        }
        // Heavy-ball contraction is sqrt(momentum) per step.
        assert!((w.get(0, 0) - 3.0).abs() < 1e-6, "w={}", w.get(0, 0));
    }
}
