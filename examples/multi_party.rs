//! Multi-party VFL (paper Appendix C): two feature providers (Party
//! A₁, Party A₂) plus the label holder (Party B) jointly train one
//! linear model with the MatMul source layer over two guest links
//! (Algorithm 3). Every Party A runs the unmodified two-party code.
//!
//! ```text
//! cargo run --release -p blindfl --example multi_party
//! ```

use bf_datagen::{generate, spec, vsplit_multi};
use blindfl::config::FedConfig;
use blindfl::models::FedSpec;
use blindfl::train::{train_federated_multi, FedTrainConfig};

fn main() {
    let dataset = spec("a9a").scaled(50, 1);
    let (train, test) = generate(&dataset, 31);
    // Party B keeps its two-party half of the features and the labels;
    // the other half is split between the two guests.
    let (train_v, test_v) = (vsplit_multi(&train, 2), vsplit_multi(&test, 2));
    println!(
        "3-party split: A1 {} / A2 {} / B {} features",
        train_v.guests[0].num_dim(),
        train_v.guests[1].num_dim(),
        train_v.party_b.num_dim()
    );

    let tc = FedTrainConfig {
        base: bf_ml::TrainConfig {
            epochs: 6,
            batch_size: 128,
            ..Default::default()
        },
        snapshot_u_a: false,
        ..Default::default()
    };
    // Each guest runs `run_party_a` over its own link; Party B runs
    // `run_party_b` over both.
    let (_, host) = train_federated_multi(
        &FedSpec::Glm { out: 1 },
        &FedConfig::plain(),
        &tc,
        train_v.guests,
        train_v.party_b,
        test_v.guests,
        test_v.party_b,
        10,
    );
    println!("final training loss = {:.4}", host.losses.last().unwrap());
    println!("3-party federated LR test AUC = {:.3}", host.test_metric);
}
