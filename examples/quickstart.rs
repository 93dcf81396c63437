//! Quickstart: train a federated logistic regression over a vertically
//! split dataset with real Paillier encryption, then compare against
//! the two non-federated baselines.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use bf_datagen::{generate, spec, vsplit};
use bf_ml::{GlmModel, TrainConfig};
use blindfl::config::FedConfig;
use blindfl::models::FedSpec;
use blindfl::train::{train_federated, FedTrainConfig};
use rand::SeedableRng;

fn main() {
    // 1. Data: a synthetic stand-in for the paper's `a9a` (Table 4
    //    shape statistics), split vertically — Party A gets the first
    //    half of the features, Party B the second half plus the labels.
    let dataset = spec("a9a").scaled(50, 1);
    let (train, test) = generate(&dataset, 42);
    let train_v = vsplit(&train);
    let test_v = vsplit(&test);
    println!(
        "dataset: {} train rows, {} features ({} at A, {} at B)",
        train.rows(),
        train.num_dim(),
        train_v.party_a.num_dim(),
        train_v.party_b.num_dim()
    );

    // 2. Federated training: MatMul source layer + bias top, with a
    //    real (test-size) Paillier key pair. Use
    //    `FedConfig::paillier_default()` for 512-bit keys or
    //    `FedConfig::plain()` for fast functional runs.
    let cfg = FedConfig::paillier_test();
    let tc = FedTrainConfig {
        base: TrainConfig {
            epochs: 3,
            ..Default::default()
        },
        snapshot_u_a: false,
        ..Default::default()
    };
    println!("training BlindFL LR (Paillier, {:?})...", cfg.backend);
    let (guest, host) = train_federated(
        &FedSpec::Glm { out: 1 },
        &cfg,
        &tc,
        train_v.party_a.clone(),
        train_v.party_b.clone(),
        test_v.party_a.clone(),
        test_v.party_b.clone(),
        7,
    );
    println!(
        "BlindFL           test AUC = {:.3}   ({} batches, {:.1}s, {:.1} MiB exchanged)",
        host.test_metric,
        host.losses.len(),
        host.train_secs,
        (guest.bytes_sent + host.bytes_sent_per_link[0]) as f64 / (1 << 20) as f64,
    );

    // 3. Baselines.
    let base = TrainConfig {
        epochs: 3,
        ..Default::default()
    };
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let mut mb = GlmModel::new(&mut rng, train_v.party_b.num_dim(), 1);
    let rb = bf_ml::train(&mut mb, &train_v.party_b, &test_v.party_b, &base);
    println!("NonFed-Party B    test AUC = {:.3}", rb.test_metric);
    let mut mc = GlmModel::new(&mut rng, train.num_dim(), 1);
    let rc = bf_ml::train(&mut mc, &train, &test, &base);
    println!("NonFed-collocated test AUC = {:.3}", rc.test_metric);

    println!("\nExpected: BlindFL ≈ collocated (lossless) and > Party-B-only.");
}
