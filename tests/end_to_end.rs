//! End-to-end federated training across every model family of the
//! evaluation, over vertically split synthetic datasets, including a
//! full run with real Paillier ciphertexts.

use bf_datagen::{generate, spec, vsplit};
use bf_ml::TrainConfig;
use blindfl::config::FedConfig;
use blindfl::models::FedSpec;
use blindfl::train::{train_federated, FedTrainConfig, PartyARun, PartyBRun};

fn run(
    dataset: &str,
    row_div: usize,
    feat_div: usize,
    fed_spec: FedSpec,
    cfg: &FedConfig,
    epochs: usize,
    seed: u64,
) -> ((PartyARun, PartyBRun), f64) {
    let ds = spec(dataset).scaled(row_div, feat_div);
    let (train, test) = generate(&ds, seed);
    let train_v = vsplit(&train);
    let test_v = vsplit(&test);
    let tc = FedTrainConfig {
        base: TrainConfig {
            epochs,
            ..Default::default()
        },
        snapshot_u_a: false,
        ..Default::default()
    };
    let outcome = train_federated(
        &fed_spec,
        cfg,
        &tc,
        train_v.party_a.clone(),
        train_v.party_b.clone(),
        test_v.party_a,
        test_v.party_b,
        seed,
    );
    let metric = outcome.1.test_metric;
    (outcome, metric)
}

#[test]
fn fed_lr_end_to_end() {
    let (outcome, auc) = run(
        "a9a",
        50,
        1,
        FedSpec::Glm { out: 1 },
        &FedConfig::plain(),
        8,
        1,
    );
    assert!(auc > 0.8, "LR AUC {auc}");
    assert!(outcome.1.losses.last().unwrap() < &outcome.1.losses[0]);
}

#[test]
fn fed_mlr_end_to_end() {
    let (_, acc) = run(
        "connect-4",
        25,
        1,
        FedSpec::Glm { out: 3 },
        &FedConfig::plain(),
        8,
        2,
    );
    assert!(acc > 0.55, "MLR accuracy {acc}");
}

#[test]
fn fed_mlp_end_to_end() {
    let (_, acc) = run(
        "connect-4",
        25,
        1,
        FedSpec::Mlp {
            widths: vec![32, 16, 3],
        },
        &FedConfig::plain(),
        8,
        3,
    );
    assert!(acc > 0.55, "MLP accuracy {acc}");
}

#[test]
fn fed_wdl_end_to_end() {
    let (outcome, auc) = run(
        "a9a",
        50,
        1,
        FedSpec::Wdl {
            emb_dim: 8,
            deep_hidden: vec![16],
            out: 1,
        },
        &FedConfig::plain(),
        8,
        4,
    );
    assert!(auc > 0.72, "WDL AUC {auc}");
    assert!(outcome.0.model.embed().is_some());
    assert!(outcome.1.model.embed().is_some());
}

#[test]
fn fed_dlrm_end_to_end() {
    let (_, auc) = run(
        "a9a",
        50,
        1,
        FedSpec::Dlrm {
            emb_dim: 8,
            vec_dim: 8,
            top_hidden: vec![8],
        },
        &FedConfig::plain(),
        8,
        5,
    );
    assert!(auc > 0.62, "DLRM AUC {auc}");
}

#[test]
fn fed_lr_with_real_paillier() {
    // Small but fully encrypted run: real keygen, real ciphertexts,
    // every protocol message genuine.
    let (outcome, auc) = run(
        "a9a",
        50,
        2,
        FedSpec::Glm { out: 1 },
        &FedConfig::paillier_test(),
        4,
        6,
    );
    assert!(auc > 0.6, "Paillier LR AUC {auc}");
    assert!(outcome.1.bytes_sent_per_link[0] > outcome.1.losses.len() as u64 * 100);
}

#[test]
fn federated_beats_party_b_on_every_model() {
    // The Figure 12 ordering, spot-checked on two model families.
    for (fed_spec, seed) in [
        (FedSpec::Glm { out: 1 }, 7u64),
        (
            FedSpec::Wdl {
                emb_dim: 4,
                deep_hidden: vec![8],
                out: 1,
            },
            8,
        ),
    ] {
        let ds = spec("a9a").scaled(25, 1);
        let (train, test) = generate(&ds, seed);
        let train_v = vsplit(&train);
        let test_v = vsplit(&test);
        let tc = FedTrainConfig {
            base: TrainConfig {
                epochs: 8,
                ..Default::default()
            },
            snapshot_u_a: false,
            ..Default::default()
        };
        let outcome = train_federated(
            &fed_spec,
            &FedConfig::plain(),
            &tc,
            train_v.party_a.clone(),
            train_v.party_b.clone(),
            test_v.party_a.clone(),
            test_v.party_b.clone(),
            seed,
        );
        // NonFed-Party B with the same architecture family.
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
        let party_b_metric = match fed_spec {
            FedSpec::Glm { out } => {
                let mut m = bf_ml::GlmModel::new(&mut rng, train_v.party_b.num_dim(), out);
                bf_ml::train(
                    &mut m,
                    &train_v.party_b,
                    &test_v.party_b,
                    &TrainConfig {
                        epochs: 8,
                        ..Default::default()
                    },
                )
                .test_metric
            }
            _ => {
                let cat = train_v.party_b.cat.as_ref().unwrap();
                let mut m = bf_ml::models::WdlModel::new(
                    &mut rng,
                    train_v.party_b.num_dim(),
                    cat.vocab(),
                    cat.fields(),
                    4,
                    &[8],
                    1,
                );
                bf_ml::train(
                    &mut m,
                    &train_v.party_b,
                    &test_v.party_b,
                    &TrainConfig {
                        epochs: 8,
                        ..Default::default()
                    },
                )
                .test_metric
            }
        };
        assert!(
            outcome.1.test_metric > party_b_metric,
            "federated {} <= party-B {party_b_metric}",
            outcome.1.test_metric
        );
    }
}
