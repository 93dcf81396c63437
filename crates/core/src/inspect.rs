//! Share-inspection helpers for the privacy experiments.
//!
//! Figure 11 of the paper plots, coordinate by coordinate, a party's
//! secret-share piece against the hidden true value, showing that the
//! piece reveals neither sign nor magnitude. These helpers reconstruct
//! that comparison from a trained [`FedOutcome`](crate::train::FedOutcome)
//! — something only the *experimenter* can do, since it requires both
//! parties' pieces.

use bf_tensor::Dense;

use crate::models::{PartyAModel, PartyBModel};

/// `(share_piece, true_value)` pairs for Party A's MatMul weights:
/// `U_A[i]` against `W_A[i] = U_A[i] + V_A[i]`.
pub fn matmul_share_vs_weight(a: &PartyAModel, b: &PartyBModel) -> Vec<(f64, f64)> {
    let u = a.matmul().u_own();
    let w = u.add(b.matmul().v_peer());
    zip_coords(u, &w)
}

/// `(share_piece, true_value)` pairs for Party A's embedding table:
/// `S_A[i]` against `Q_A[i] = S_A[i] + T_A[i]`.
pub fn embed_share_vs_table(a: &PartyAModel, b: &PartyBModel) -> Vec<(f64, f64)> {
    let em_a = a.embed().expect("model has no Embed source");
    let em_b = b.embed().expect("model has no Embed source");
    let s = em_a.s_own();
    let q = s.add(em_b.t_peer());
    zip_coords(s, &q)
}

fn zip_coords(piece: &Dense, truth: &Dense) -> Vec<(f64, f64)> {
    piece
        .data()
        .iter()
        .zip(truth.data())
        .map(|(&p, &t)| (p, t))
        .collect()
}

/// Summary of how (un)informative a share piece is about the truth:
/// `(pearson correlation, sign-agreement rate)`.
///
/// For a protective sharing both should be ≈0 correlation and ≈0.5
/// sign agreement.
pub fn share_informativeness(pairs: &[(f64, f64)]) -> (f64, f64) {
    let pieces: Vec<f64> = pairs.iter().map(|p| p.0).collect();
    let truths: Vec<f64> = pairs.iter().map(|p| p.1).collect();
    let corr = bf_util::stats::pearson(&pieces, &truths);
    let agree = pairs
        .iter()
        .filter(|(p, t)| (p > &0.0) == (t > &0.0))
        .count() as f64
        / pairs.len().max(1) as f64;
    (corr, agree)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn informativeness_detects_identity() {
        let pairs: Vec<(f64, f64)> = (0..100)
            .map(|i| (i as f64 - 50.0, i as f64 - 50.0))
            .collect();
        let (corr, agree) = share_informativeness(&pairs);
        assert!(corr > 0.99);
        assert!(agree > 0.97);
    }

    #[test]
    fn informativeness_detects_noise() {
        // Piece unrelated to truth.
        let pairs: Vec<(f64, f64)> = (0..1000)
            .map(|i| {
                let x = (i as f64 * 0.7368).sin() * 50.0;
                let t = ((i * 37 + 11) % 13) as f64 - 6.0;
                (x, t)
            })
            .collect();
        let (corr, agree) = share_informativeness(&pairs);
        assert!(corr.abs() < 0.15, "corr={corr}");
        assert!((agree - 0.5).abs() < 0.12, "agree={agree}");
    }
}
