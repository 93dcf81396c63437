//! Label-inference attacks from the paper's privacy evaluation.

use bf_ml::metrics::auc;
use bf_tensor::{Dense, Features};

/// Figure 9 — the forward-activation attack: Party A predicts labels
/// from `X_A · M` where `M` is whatever weight-like matrix A can see
/// (`W_A` under split learning; only the share `U_A` under BlindFL).
/// Returns the attack AUC (binary labels, single-column scores).
pub fn activation_attack_auc(x_a: &Features, m: &Dense, labels: &[f64]) -> f64 {
    assert_eq!(m.cols(), 1, "activation attack scores one column");
    let scores = x_a.matmul(m);
    auc(scores.data(), labels)
}

/// Multi-class variant of the activation attack: A scores `X_A·M` and
/// predicts the argmax class; returns accuracy.
pub fn activation_attack_accuracy(x_a: &Features, m: &Dense, labels: &[u32]) -> f64 {
    let scores = x_a.matmul(m);
    bf_ml::metrics::accuracy_multiclass(&scores, labels)
}

/// Figure 10 — the backward-derivative attack (after Li et al.): for
/// binary classification the derivatives of positive and negative
/// instances point in opposite directions, so within each batch Party A
/// clusters the rows of `∇E_A` by the sign of their cosine similarity
/// to an anchor row, and labels the two clusters optimally (a
/// two-way choice per batch). Returns overall training-label accuracy.
///
/// `recorded` is the `(∇E_A, true labels)` stream captured by the
/// split-learning run; the labels are used for scoring only.
pub fn derivative_attack_accuracy(recorded: &[(Dense, Vec<f64>)]) -> f64 {
    let mut correct = 0usize;
    let mut total = 0usize;
    for (grads, labels) in recorded {
        let n = grads.rows();
        if n == 0 {
            continue;
        }
        // Split by the sign of the projection onto the dominant
        // direction of the derivative cloud (power iteration on GᵀG):
        // positive and negative instances push in opposite directions,
        // so the top principal axis separates them far more robustly
        // than any single anchor row.
        let d = grads.cols();
        let mut v: Vec<f64> = grads.row(0).to_vec();
        if v.iter().all(|&x| x == 0.0) {
            v[0] = 1.0;
        }
        for _ in 0..12 {
            // w = Gᵀ(G·v)
            let mut gv = vec![0.0f64; n];
            for i in 0..n {
                gv[i] = grads.row(i).iter().zip(&v).map(|(a, b)| a * b).sum();
            }
            let mut w = vec![0.0f64; d];
            for i in 0..n {
                for (wk, &g) in w.iter_mut().zip(grads.row(i)) {
                    *wk += gv[i] * g;
                }
            }
            let norm = w.iter().map(|x| x * x).sum::<f64>().sqrt().max(1e-12);
            for x in &mut w {
                *x /= norm;
            }
            v = w;
        }
        let mut same_cluster = vec![false; n];
        for i in 0..n {
            let dot: f64 = grads.row(i).iter().zip(&v).map(|(a, b)| a * b).sum();
            same_cluster[i] = dot >= 0.0;
        }
        // Two possible assignments; the adversary picks the better one
        // (in practice via class-prior side knowledge).
        let acc_a = same_cluster
            .iter()
            .zip(labels)
            .filter(|(&s, &l)| s == (l > 0.5))
            .count();
        let acc_b = n - acc_a;
        correct += acc_a.max(acc_b);
        total += n;
    }
    if total == 0 {
        return 0.0;
    }
    correct as f64 / total as f64
}

/// Requirement ② — Party A's *feature* leakage toward Party B: under
/// split learning B receives `Z_A = X_A·W_A` in plaintext, and because
/// `Z_A` is a fixed linear image of `X_A`, instances with similar
/// features have similar activations. This attack measures that
/// leak as the Spearman-style correlation between pairwise feature
/// distances `‖X_A[i]−X_A[j]‖` and pairwise activation distances
/// `‖V[i]−V[j]‖` for whatever view `V` Party B holds.
///
/// Under split learning `V = Z_A` and the correlation is high; under
/// BlindFL Party B's only per-instance view is the share
/// `Z'_A = X_A·U_A + ε + …` whose masks (`ε` drawn fresh per batch)
/// decorrelate it from `X_A`.
pub fn feature_similarity_attack(x_a: &Dense, view: &Dense, max_pairs: usize) -> f64 {
    assert_eq!(x_a.rows(), view.rows());
    let n = x_a.rows();
    let mut feat_d = Vec::new();
    let mut view_d = Vec::new();
    'outer: for i in 0..n {
        for j in (i + 1)..n {
            feat_d.push(dist(x_a.row(i), x_a.row(j)));
            view_d.push(dist(view.row(i), view.row(j)));
            if feat_d.len() >= max_pairs {
                break 'outer;
            }
        }
    }
    bf_util::stats::pearson(&feat_d, &view_d)
}

fn dist(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y) * (x - y))
        .sum::<f64>()
        .sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn activation_attack_separates_when_weights_known() {
        // Labels = sign of x·w with known w ⇒ AUC 1.
        let x = Dense::from_vec(4, 2, vec![1.0, 0.0, -1.0, 0.0, 2.0, 1.0, -2.0, -1.0]);
        let w = Dense::from_vec(2, 1, vec![1.0, 0.5]);
        let scores = x.matmul(&w);
        let labels: Vec<f64> = scores
            .data()
            .iter()
            .map(|&s| if s > 0.0 { 1.0 } else { 0.0 })
            .collect();
        let got = activation_attack_auc(&Features::Dense(x), &w, &labels);
        assert!((got - 1.0).abs() < 1e-12);
    }

    #[test]
    fn activation_attack_random_share_is_chance() {
        // Scores independent of labels ⇒ AUC ≈ 0.5.
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(1);
        let x = bf_tensor::init::gaussian(&mut rng, 500, 4, 1.0);
        let u = bf_tensor::init::gaussian(&mut rng, 4, 1, 1.0);
        let labels: Vec<f64> = (0..500).map(|i| (i % 2) as f64).collect();
        let got = activation_attack_auc(&Features::Dense(x), &u, &labels);
        assert!((got - 0.5).abs() < 0.1, "auc={got}");
    }

    #[test]
    fn derivative_attack_recovers_opposite_directions() {
        // Synthetic BCE-like derivatives: positives ∝ -v, negatives ∝ +v.
        let v = [0.3, -0.7, 0.2];
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..64 {
            let pos = i % 3 == 0;
            let scale = 0.5 + (i as f64 % 5.0) * 0.1;
            let sign = if pos { -1.0 } else { 1.0 };
            rows.extend(v.iter().map(|&c| sign * scale * c));
            labels.push(if pos { 1.0 } else { 0.0 });
        }
        let grads = Dense::from_vec(64, 3, rows);
        let acc = derivative_attack_accuracy(&[(grads.clone(), labels.clone())]);
        assert!(acc > 0.99, "acc={acc}");
    }

    #[test]
    fn feature_similarity_leaks_through_linear_activations() {
        // V = X·W (split learning): distances correlate strongly.
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(5);
        let x = bf_tensor::init::gaussian(&mut rng, 60, 6, 1.0);
        let w = bf_tensor::init::gaussian(&mut rng, 6, 4, 1.0);
        let z = x.matmul(&w);
        let corr = feature_similarity_attack(&x, &z, 500);
        assert!(corr > 0.5, "split-learning similarity leak corr={corr}");

        // V = random mask (BlindFL's share view): no correlation.
        let noise = bf_tensor::init::gaussian(&mut rng, 60, 4, 100.0);
        let masked = z.add(&noise);
        let corr_masked = feature_similarity_attack(&x, &masked, 500);
        assert!(
            corr_masked.abs() < 0.25,
            "masked view should decorrelate: {corr_masked}"
        );
    }

    #[test]
    fn derivative_attack_on_noise_is_weak() {
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(2);
        let grads = bf_tensor::init::gaussian(&mut rng, 128, 8, 1.0);
        let labels: Vec<f64> = (0..128).map(|i| ((i * 7) % 2) as f64).collect();
        let acc = derivative_attack_accuracy(&[(grads, labels)]);
        // Optimal two-way assignment on noise stays near 0.5 (above by
        // the max over two choices).
        assert!(acc < 0.65, "acc={acc}");
    }
}
