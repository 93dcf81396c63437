//! Lossless-equivalence tests (the paper's core accuracy claim):
//! federated training must match plaintext training on the
//! reconstructed parameters *exactly* (up to fixed-point/f64 noise),
//! for both source-layer kinds and both crypto backends.

use bf_datagen::{generate, spec, vsplit};
use bf_ml::TrainConfig;
use bf_tensor::Dense;
use blindfl::config::FedConfig;
use blindfl::models::FedSpec;
use blindfl::train::{train_federated, FedOutcome, FedTrainConfig};

fn run(cfg: &FedConfig, epochs: usize, seed: u64) -> (FedOutcome, Dense, Dense) {
    let ds = spec("a9a").scaled(200, 1);
    let (train, test) = generate(&ds, 0x105);
    let train_v = vsplit(&train);
    let test_v = vsplit(&test);
    let tc = FedTrainConfig {
        base: TrainConfig {
            epochs,
            batch_size: 64,
            ..Default::default()
        },
        snapshot_u_a: false,
        ..Default::default()
    };
    let outcome = train_federated(
        &FedSpec::Glm { out: 1 },
        cfg,
        &tc,
        train_v.party_a.clone(),
        train_v.party_b.clone(),
        test_v.party_a.clone(),
        test_v.party_b.clone(),
        seed,
    );
    let w_a = outcome
        .party_a
        .matmul()
        .unwrap()
        .u_own()
        .add(outcome.party_b.matmul().unwrap().v_peer());
    let w_b = outcome
        .party_b
        .matmul()
        .unwrap()
        .u_own()
        .add(outcome.party_a.matmul().unwrap().v_peer());
    (outcome, w_a, w_b)
}

#[test]
fn paillier_and_plain_backends_agree() {
    // Same seed ⇒ same initial shares and batch schedule; the two
    // backends must produce (near-)identical trained weights — the
    // only difference is fixed-point quantisation inside Paillier.
    let (_, wa_plain, wb_plain) = run(&FedConfig::plain(), 2, 9);
    let mut cfg = FedConfig::paillier_test();
    cfg.frac_bits = 32;
    let (_, wa_pail, wb_pail) = run(&cfg, 2, 9);
    let err_a = wa_plain.sub(&wa_pail).max_abs();
    let err_b = wb_plain.sub(&wb_pail).max_abs();
    assert!(err_a < 1e-3, "W_A backend divergence {err_a}");
    assert!(err_b < 1e-3, "W_B backend divergence {err_b}");
}

#[test]
fn metrics_match_across_backends() {
    let (out_plain, _, _) = run(&FedConfig::plain(), 2, 11);
    let (out_pail, _, _) = run(&FedConfig::paillier_test(), 2, 11);
    let gap = (out_plain.report.test_metric - out_pail.report.test_metric).abs();
    assert!(gap < 5e-3, "metric gap across backends {gap}");
}

#[test]
fn packed_and_scalar_paillier_are_bit_identical() {
    // The packed fast path's contract is *exact* equality, not
    // tolerance: slot encode/decode reuses the scalar codec's rounding
    // and f64 conversion, so every loss, weight, metric and logit must
    // match the scalar run bit-for-bit. An MLP head gives the MatMul
    // source a multi-column weight matrix that genuinely packs
    // (Glm out=1 would fall back to scalar columns).
    use bf_paillier::PaillierMode;
    let run_mode = |mode: PaillierMode| {
        let ds = spec("a9a").scaled(120, 1);
        let (train, test) = generate(&ds, 0x105);
        let train_v = vsplit(&train);
        let test_v = vsplit(&test);
        let tc = FedTrainConfig {
            base: TrainConfig {
                epochs: 1,
                batch_size: 64,
                ..Default::default()
            },
            snapshot_u_a: false,
            ..Default::default()
        };
        train_federated(
            &FedSpec::Mlp { widths: vec![4, 1] },
            &FedConfig::paillier_test().with_paillier_mode(mode),
            &tc,
            train_v.party_a.clone(),
            train_v.party_b.clone(),
            test_v.party_a.clone(),
            test_v.party_b.clone(),
            21,
        )
    };
    let scalar = run_mode(PaillierMode::Scalar);
    let packed = run_mode(PaillierMode::Packed);
    assert_eq!(scalar.report.losses, packed.report.losses);
    assert_eq!(scalar.report.test_metric, packed.report.test_metric);
    assert_eq!(
        scalar.report.test_logits.data(),
        packed.report.test_logits.data()
    );
    assert_eq!(
        scalar.party_a.matmul().unwrap().u_own().data(),
        packed.party_a.matmul().unwrap().u_own().data()
    );
    assert_eq!(
        scalar.party_b.matmul().unwrap().v_peer().data(),
        packed.party_b.matmul().unwrap().v_peer().data()
    );
    // Packing must also shrink the ciphertext traffic.
    assert!(
        packed.report.bytes_a_to_b < scalar.report.bytes_a_to_b,
        "packed A→B traffic {} !< scalar {}",
        packed.report.bytes_a_to_b,
        scalar.report.bytes_a_to_b
    );
    assert!(packed.report.bytes_b_to_a < scalar.report.bytes_b_to_a);
}

#[test]
fn packed_and_scalar_embed_models_are_bit_identical() {
    // The Embed-MatMul source under both layouts: every weight cache,
    // table cache, delta and ⟦∇Z⟧ copy packs (256-bit keys hold two
    // slots; dim = 2, projection width 4 / 2), the two scalar-by-
    // necessity uploads do not, and nothing a party can decrypt may
    // move by a bit — nor may the mask stream, which the equal `S` /
    // `U` pieces (updated by the masks themselves) pin.
    use bf_paillier::PaillierMode;
    let models = [
        FedSpec::Wdl {
            emb_dim: 2,
            deep_hidden: vec![4],
            out: 1,
        },
        FedSpec::Dlrm {
            emb_dim: 2,
            vec_dim: 2,
            top_hidden: vec![3],
        },
    ];
    for model in &models {
        let run_mode = |mode: PaillierMode| {
            let ds = spec("a9a").scaled(300, 1);
            let (train, test) = generate(&ds, 0x105);
            let train_v = vsplit(&train);
            let test_v = vsplit(&test);
            let tc = FedTrainConfig {
                base: TrainConfig {
                    epochs: 1,
                    batch_size: 32,
                    ..Default::default()
                },
                snapshot_u_a: false,
                ..Default::default()
            };
            train_federated(
                model,
                &FedConfig::paillier_test().with_paillier_mode(mode),
                &tc,
                train_v.party_a.clone(),
                train_v.party_b.clone(),
                test_v.party_a.clone(),
                test_v.party_b.clone(),
                23,
            )
        };
        let scalar = run_mode(PaillierMode::Scalar);
        let packed = run_mode(PaillierMode::Packed);
        assert!(scalar.report.losses.len() >= 2, "{model:?}");
        assert_eq!(scalar.report.losses, packed.report.losses, "{model:?}");
        assert_eq!(
            scalar.report.test_logits.data(),
            packed.report.test_logits.data(),
            "{model:?}"
        );
        let halves = [
            (
                scalar.party_a.embed().unwrap(),
                packed.party_a.embed().unwrap(),
            ),
            (
                scalar.party_b.embed().unwrap(),
                packed.party_b.embed().unwrap(),
            ),
        ];
        for (s, p) in halves {
            assert_eq!(s.s_own().data(), p.s_own().data(), "{model:?} S");
            assert_eq!(s.t_peer().data(), p.t_peer().data(), "{model:?} T");
            assert_eq!(s.u_own().data(), p.u_own().data(), "{model:?} U");
            assert_eq!(s.v_peer().data(), p.v_peer().data(), "{model:?} V");
        }
        assert!(
            packed.report.bytes_a_to_b < scalar.report.bytes_a_to_b,
            "{model:?}: packed A→B traffic {} !< scalar {}",
            packed.report.bytes_a_to_b,
            scalar.report.bytes_a_to_b
        );
        assert!(
            packed.report.bytes_b_to_a < scalar.report.bytes_b_to_a,
            "{model:?}: packed B→A traffic {} !< scalar {}",
            packed.report.bytes_b_to_a,
            scalar.report.bytes_b_to_a
        );
    }
}

#[test]
fn forward_outputs_match_plaintext_model() {
    // Reconstruct W after training and verify the federated test
    // logits equal X·W + b computed in the clear.
    let (outcome, w_a, w_b) = run(&FedConfig::plain(), 2, 13);
    let ds = spec("a9a").scaled(200, 1);
    let (_, test) = generate(&ds, 0x105);
    let test_v = vsplit(&test);
    let z_a = test_v.party_a.num.as_ref().unwrap().matmul(&w_a);
    let z_b = test_v.party_b.num.as_ref().unwrap().matmul(&w_b);
    let mut joint = z_a.add(&z_b);
    // Add Party B's bias (reconstructed from the logits of any row):
    // logits - (z_a + z_b) is constant = bias.
    let bias = outcome.report.test_logits.get(0, 0) - joint.get(0, 0);
    for v in joint.data_mut() {
        *v += bias;
    }
    assert!(
        joint.approx_eq(&outcome.report.test_logits, 1e-6),
        "forward mismatch {}",
        joint.sub(&outcome.report.test_logits).max_abs()
    );
}
