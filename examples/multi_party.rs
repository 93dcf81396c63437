//! Multi-party VFL (paper Appendix C): two feature providers (Party
//! A₁, Party A₂) plus the label holder (Party B) jointly train one
//! linear model with the MatMul source layer over two guest links
//! (Algorithm 3). Every Party A runs the unmodified two-party code.
//!
//! ```text
//! cargo run --release -p blindfl --example multi_party
//! ```

use bf_datagen::{generate, spec};
use bf_ml::data::BatchIter;
use bf_ml::loss::bce_with_logits;
use bf_ml::metrics::auc;
use bf_tensor::{Csr, Dense, Features};
use blindfl::config::FedConfig;
use blindfl::multiparty::run_star;
use blindfl::session::Session;
use blindfl::source::matmul::{aggregate_a, aggregate_b, MatMulSource};

fn main() {
    let dataset = spec("a9a").scaled(50, 1);
    let (train, test) = generate(&dataset, 31);
    // Split features three ways: A1 | A2 | B.
    let d = train.num_dim();
    let (c1, c2) = (d / 3, 2 * d / 3);
    let split3 = |ds: &bf_ml::Dataset| -> [Features; 3] {
        let Features::Sparse(s) = ds.num.as_ref().unwrap() else {
            panic!("expect sparse")
        };
        let cols = |lo: usize, hi: usize| -> Vec<u32> { (lo as u32..hi as u32).collect() };
        [
            Features::Sparse(s.select_cols(&cols(0, c1))),
            Features::Sparse(s.select_cols(&cols(c1, c2))),
            Features::Sparse(s.select_cols(&cols(c2, d))),
        ]
    };
    let [x1, x2, xb] = split3(&train);
    let [t1, t2, tb] = split3(&test);
    let y: Vec<f64> = train.labels.as_ref().unwrap().as_binary().to_vec();
    let y_test: Vec<f64> = test.labels.as_ref().unwrap().as_binary().to_vec();
    println!(
        "3-party split: A1 {} / A2 {} / B {} features",
        c1,
        c2 - c1,
        d - c2
    );

    let cfg = FedConfig::plain();
    let epochs = 6;
    let bs = 128;
    let n = train.rows();

    // Each Party A runs the standard two-party loop over its own link;
    // Party B drives the same layer over both links: its own share, then
    // each guest's folded in.
    fn forward(
        layer: &mut MatMulSource,
        sessions: &mut [Session],
        x: &Features,
        train: bool,
    ) -> Dense {
        let mut z = layer.forward(sessions, x, train).unwrap();
        for sess in sessions.iter() {
            z = aggregate_b(sess, z).unwrap();
        }
        z
    }
    let (_, (last_loss, z_test)) = run_star(
        &cfg,
        10,
        vec![(x1, t1), (x2, t2)],
        |(x, t), mut sess| {
            let mut layer = MatMulSource::init(&mut sess, x.cols(), 1).unwrap();
            for epoch in 0..epochs {
                for idx in BatchIter::new(n, bs, 7 ^ epoch as u64) {
                    let xb = x.select_rows(&idx);
                    let z = layer.forward(&mut sess, &xb, true).unwrap();
                    aggregate_a(&sess, z).unwrap();
                    layer.backward_a(&mut sess).unwrap();
                }
            }
            // Federated inference on the test split.
            let z = layer.forward(&mut sess, &t, false).unwrap();
            aggregate_a(&sess, z).unwrap();
        },
        |mut sessions| {
            let mut layer = MatMulSource::init(&mut sessions, xb.cols(), 1).unwrap();
            let mut last_loss = f64::NAN;
            for epoch in 0..epochs {
                for idx in BatchIter::new(n, bs, 7 ^ epoch as u64) {
                    let x_batch = xb.select_rows(&idx);
                    let y_batch: Vec<f64> = idx.iter().map(|&i| y[i]).collect();
                    let z = forward(&mut layer, &mut sessions, &x_batch, true);
                    let (loss, grad) = bce_with_logits(&z, &y_batch);
                    last_loss = loss;
                    layer.backward_b(&mut sessions, &grad).unwrap();
                }
            }
            (last_loss, forward(&mut layer, &mut sessions, &tb, false))
        },
    );
    println!("final training loss = {last_loss:.4}");
    println!(
        "3-party federated LR test AUC = {:.3}",
        auc(z_test.data(), &y_test)
    );
    let _ = Csr::from_triplets; // keep Csr import obviously used
}
