//! Credit scoring across two enterprises — the paper's motivating
//! Fintech scenario: a bank (Party B) holds repayment labels and its
//! own account features; a social-app company (Party A) holds
//! behavioural features for the same customers. Neither may reveal its
//! data; BlindFL trains a joint risk model anyway.
//!
//! ```text
//! cargo run --release -p blindfl --example credit_scoring
//! ```

use bf_datagen::{generate, spec, vsplit};
use bf_ml::metrics::accuracy_binary;
use bf_ml::TrainConfig;
use blindfl::config::FedConfig;
use blindfl::inspect::{matmul_share_vs_weight, share_informativeness};
use blindfl::models::FedSpec;
use blindfl::train::{train_federated, FedTrainConfig};

fn main() {
    // The `w8a`-shaped dataset stands in for the bank's risk data:
    // 300 one-hot-ish features, heavily sparse, binary default labels.
    let dataset = spec("w8a").scaled(10, 1);
    let (train, test) = generate(&dataset, 2024);
    let train_v = vsplit(&train);
    let test_v = vsplit(&test);
    println!(
        "customers: {} train / {} test; bank features: {}; app features: {}",
        train.rows(),
        test.rows(),
        train_v.party_b.num_dim(),
        train_v.party_a.num_dim()
    );

    // Fast lossless backend for the demo; switch to
    // `FedConfig::paillier_default()` for real encryption.
    let cfg = FedConfig::plain();
    let tc = FedTrainConfig {
        base: TrainConfig {
            epochs: 10,
            ..Default::default()
        },
        snapshot_u_a: false,
        ..Default::default()
    };
    let (guest, host) = train_federated(
        &FedSpec::Glm { out: 1 },
        &cfg,
        &tc,
        train_v.party_a.clone(),
        train_v.party_b.clone(),
        test_v.party_a.clone(),
        test_v.party_b.clone(),
        99,
    );
    println!("joint risk model test AUC = {:.3}", host.test_metric);

    // The bank can threshold the federated scores as usual…
    let labels = test_v.party_b.labels.as_ref().unwrap().as_binary();
    let acc = accuracy_binary(host.test_logits.data(), labels, 0.0);
    println!("decision accuracy at the 0-logit threshold = {:.3}", acc);

    // …while neither side can reconstruct the model. The app company's
    // share piece says nothing about the true weights:
    let pairs = matmul_share_vs_weight(&guest.model, &host.model);
    let (corr, sign) = share_informativeness(&pairs);
    println!(
        "share-vs-weight informativeness at Party A: pearson {corr:+.3}, sign agreement {sign:.3} \
         (chance = 0.5)"
    );
}
