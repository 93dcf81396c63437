//! Federated (secret-shared) top model — paper Appendix B.
//!
//! With a non-federated top model, Party B learns `Z` and `∇Z`
//! (Theorems 5.2/6.2 bound what those reveal). For stronger guarantees
//! the top model itself can run on secret shares: the source layer
//! emits the sharing `⟨Z'_A, Z'_B⟩` and consumes a sharing of `∇Z`.
//! This example trains a least-squares classifier whose square-loss
//! derivative is computed share-locally — **neither party ever sees
//! `Z` or `∇Z` in plaintext**.
//!
//! ```text
//! cargo run --release -p blindfl --example federated_top
//! ```

use bf_datagen::{generate, spec, vsplit};
use bf_ml::data::BatchIter;
use bf_ml::metrics::auc;
use bf_mpc::transport::Msg;
use blindfl::config::FedConfig;
use blindfl::session::run_pair;
use blindfl::source::ss_top::SquareLossSsTop;
use blindfl::source::MatMulSource;

fn main() {
    let dataset = spec("a9a").scaled(50, 1);
    let (train, test) = generate(&dataset, 13);
    let train_v = vsplit(&train);
    let test_v = vsplit(&test);
    let y: Vec<f64> = train_v
        .party_b
        .labels
        .as_ref()
        .unwrap()
        .as_binary()
        .to_vec();
    let y_test: Vec<f64> = test_v.party_b.labels.as_ref().unwrap().as_binary().to_vec();

    let cfg = FedConfig::plain().with_lr(0.1);
    let epochs = 8;
    let bs = 128;
    let n = train_v.party_a.rows();
    let train_a = train_v.party_a.clone();
    let test_a = test_v.party_a.clone();
    let train_b = train_v.party_b.clone();
    let test_b = test_v.party_b.clone();

    let (_, test_auc) = run_pair(
        &cfg,
        17,
        move |mut sess| {
            let mut layer = MatMulSource::init(&mut sess, train_a.num_dim(), 1).unwrap();
            for epoch in 0..epochs {
                for idx in BatchIter::new(n, bs, 3 ^ epoch as u64) {
                    let xb = train_a.num.as_ref().unwrap().select_rows(&idx);
                    let z_share = layer.forward_ss(&mut sess, &xb, true).unwrap();
                    let g = SquareLossSsTop::grad_piece_a(&z_share);
                    layer.backward_ss(&mut sess, &g).unwrap();
                }
            }
            // Inference: only now is the *prediction* revealed to B.
            let z = layer
                .forward_ss(&mut sess, test_a.num.as_ref().unwrap(), false)
                .unwrap();
            sess.ep.send(Msg::Mat(z)).unwrap();
        },
        move |mut sess| {
            let mut layer = MatMulSource::init(&mut sess, train_b.num_dim(), 1).unwrap();
            for epoch in 0..epochs {
                for idx in BatchIter::new(n, bs, 3 ^ epoch as u64) {
                    let xb = train_b.num.as_ref().unwrap().select_rows(&idx);
                    let yb: Vec<f64> = idx.iter().map(|&i| y[i]).collect();
                    let z_share = layer.forward_ss(&mut sess, &xb, true).unwrap();
                    let g = SquareLossSsTop::grad_piece_b(&z_share, &yb);
                    layer.backward_ss(&mut sess, &g).unwrap();
                }
            }
            let z_share = layer
                .forward_ss(&mut sess, test_b.num.as_ref().unwrap(), false)
                .unwrap();
            let z = z_share.add(&sess.ep.recv_mat().unwrap());
            auc(z.data(), &y_test)
        },
    );
    println!("SS-top least-squares classifier test AUC = {test_auc:.3}");
    println!("(neither party observed Z or ∇Z in plaintext at any point)");
}
