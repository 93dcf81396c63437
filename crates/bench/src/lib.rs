//! Shared infrastructure for the experiment harnesses.
//!
//! One binary per table/figure of the paper (see `src/bin/`): each
//! prints the same rows/series the publication reports, over the
//! synthetic datasets of `bf-datagen` (scaling documented in
//! EXPERIMENTS.md). Two standard configurations:
//!
//! * [`cfg_timing`] — real Paillier (512-bit modulus, pooled
//!   obfuscations): used wherever wall-clock cost is the measurement.
//! * [`cfg_quality`] — the Plain backend: used wherever *model quality*
//!   is the measurement (the protocols are lossless, so convergence is
//!   identical; verified by `blindfl`'s equivalence tests).

use bf_datagen::{DatasetSpec, Shape};
use bf_ml::data::Dataset;
use bf_paillier::ObfMode;
use bf_tensor::Dense;
use bf_util::Stopwatch;
use blindfl::config::{Backend, FedConfig};
use blindfl::session::run_pair;
use blindfl::source::matmul::{aggregate_a, aggregate_b};
use blindfl::source::MatMulSource;

/// Paillier configuration for the timing experiments.
pub fn cfg_timing() -> FedConfig {
    FedConfig {
        backend: Backend::Paillier { key_bits: 512 },
        frac_bits: 32,
        obf_mode: ObfMode::Pool(64),
        paillier_mode: bf_paillier::PaillierMode::Packed,
        he_mask: 1e4,
        grad_mode: blindfl::config::GradMode::SecretShared,
        lr: 0.05,
        momentum: 0.9,
    }
}

/// Plain-backend configuration for the model-quality experiments.
pub fn cfg_quality() -> FedConfig {
    FedConfig::plain()
}

/// Row-scaled dataset specs for the quality experiments (Figure 12 et
/// al.): feature spaces shrunk for the ultra-high-dimensional sets,
/// row counts cut to laptop scale. Documented in EXPERIMENTS.md.
pub fn quality_spec(name: &str) -> DatasetSpec {
    let s = bf_datagen::spec(name);
    match name {
        "a9a" | "w8a" | "connect-4" => s.scaled(10, 1),
        "news20" => s.scaled(5, 10),
        "higgs" => s.scaled(1000, 1),
        "avazu-app" => s.scaled(2000, 100),
        "industry" => s.scaled(20_000, 1000),
        "fmnist" => s.scaled(10, 1),
        other => panic!("no quality scaling for {other}"),
    }
}

/// Timing specs keep the **full feature dimensionality** (that is what
/// drives the Table 5 comparison) but only enough rows for a few
/// batches.
pub fn timing_spec(name: &str) -> DatasetSpec {
    let mut s = bf_datagen::spec(name);
    s.train_rows = 640;
    s.test_rows = 128;
    s
}

/// Measure the federated MatMul source layer's per-mini-batch cost
/// (forward + backward, exactly the "matrix multiplication" portion the
/// paper times): returns mean seconds/batch over `batches` measured
/// batches after one warm-up.
pub fn matmul_source_batch_secs(
    cfg: &FedConfig,
    train_a: &Dataset,
    train_b: &Dataset,
    out: usize,
    batch_size: usize,
    batches: usize,
) -> f64 {
    let n = train_a.rows();
    let idxs: Vec<Vec<usize>> = (0..=batches)
        .map(|i| (0..batch_size).map(|j| (i * batch_size + j) % n).collect())
        .collect();
    let a_view = train_a.clone();
    let b_view = train_b.clone();
    let idx_a = idxs.clone();
    let grad_template = Dense::zeros(batch_size, out);
    let (_, secs) = run_pair(
        cfg,
        0xBEEF,
        move |mut sess| {
            let mut layer = MatMulSource::init(&mut sess, a_view.num_dim(), out).unwrap();
            for idx in &idx_a {
                let batch = a_view.select(idx);
                let x = batch.num.as_ref().unwrap();
                let z = layer.forward(&mut sess, x, true).unwrap();
                aggregate_a(&sess, z).unwrap();
                layer.backward_a(&mut sess).unwrap();
            }
        },
        move |mut sess| {
            let mut layer = MatMulSource::init(&mut sess, b_view.num_dim(), out).unwrap();
            let mut sw = Stopwatch::new();
            for (i, idx) in idxs.iter().enumerate() {
                if i == 1 {
                    sw.start(); // skip warm-up batch
                }
                let batch = b_view.select(idx);
                let x = batch.num.as_ref().unwrap();
                let z_own = layer.forward(&mut sess, x, true).unwrap();
                let _z = aggregate_b(&sess, z_own).unwrap();
                // A synthetic ∇Z of the right shape: the cost being
                // measured is the protocol's, not the loss function's.
                let g = grad_template.map(|_| 0.01);
                layer.backward_b(&mut sess, &g).unwrap();
            }
            sw.stop();
            sw.secs() / batches as f64
        },
    );
    secs
}

/// Format seconds like the paper's Table 5 (three decimals, or `<1 ms`).
pub fn fmt_secs(s: f64) -> String {
    if s < 0.0005 {
        "<0.001".to_string()
    } else {
        format!("{s:.3}")
    }
}

/// Render a dataset's sparsity label like Table 5 ("88.72%" / "Dense").
pub fn sparsity_label(shape: &Shape) -> String {
    match shape {
        Shape::Dense { .. } | Shape::Image { .. } => "Dense".to_string(),
        s => format!("{:.2}%", s.sparsity() * 100.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bf_datagen::{generate, vsplit};

    #[test]
    fn timing_spec_keeps_dims() {
        let s = timing_spec("news20");
        assert_eq!(s.shape.features(), 62_000);
        assert_eq!(s.train_rows, 640);
    }

    #[test]
    fn source_timer_runs() {
        let s = bf_datagen::spec("a9a").scaled(200, 1);
        let (train, _) = generate(&s, 1);
        let v = vsplit(&train);
        let secs = matmul_source_batch_secs(&cfg_quality(), &v.party_a, &v.party_b, 1, 32, 2);
        assert!(secs > 0.0 && secs < 5.0);
    }

    #[test]
    fn labels_and_formats() {
        assert_eq!(fmt_secs(0.0001), "<0.001");
        assert_eq!(fmt_secs(0.0191), "0.019");
        assert_eq!(sparsity_label(&Shape::Dense { features: 28 }), "Dense");
    }
}
