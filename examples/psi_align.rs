//! Sample alignment end to end: two parties with *misaligned* data —
//! locally-shuffled supersets of a common sample set — run salted-hash
//! PSI over their ID columns, train on the intersection, and land
//! bit-identically on the pre-aligned run. Then the limited-overlap
//! variant: the guest's local StandardScaler+PCA encoder soaks up its
//! unaligned rows before federated training.
//!
//! ```text
//! cargo run --release --example psi_align
//! ```

use bf_datagen::{generate, sample_id, spec, vsplit, vsplit_misaligned, MisalignedParty};
use bf_ml::data::Dataset;
use bf_ml::{LocalEncoder, TrainConfig};
use blindfl::config::FedConfig;
use blindfl::models::FedSpec;
use blindfl::session::run_pair;
use blindfl::train::{
    run_party_a, run_party_b, train_federated, FedTrainConfig, PartyARun, PartyBRun,
};
use blindfl::{psi_salt, AlignInput};

const SEED: u64 = 7;

/// One PSI-aligned two-party run: each party sets `align` to its own
/// sample-ID column, and the ordinary entry points run the alignment
/// phase before training.
fn train_aligned(
    cfg: &FedConfig,
    tc: &FedTrainConfig,
    party_a: MisalignedParty,
    party_b: &MisalignedParty,
    test_a: Dataset,
    test_b: &Dataset,
) -> (PartyARun, PartyBRun) {
    let spec = FedSpec::Glm { out: 1 };
    let aligning = |ids: &[u64]| FedTrainConfig {
        align: Some(AlignInput {
            ids: ids.to_vec(),
            salt: psi_salt(SEED),
        }),
        ..tc.clone()
    };
    let (spec_a, tc_a, tc_b) = (spec.clone(), aligning(&party_a.ids), aligning(&party_b.ids));
    run_pair(
        cfg,
        SEED,
        move |mut sess| {
            run_party_a(&mut sess, &spec_a, &tc_a, &party_a.data, &test_a).expect("party A")
        },
        |mut sess| run_party_b(&mut sess, &spec, &tc_b, &party_b.data, test_b).expect("party B"),
    )
}

fn main() {
    // 1. Misaligned data: only 60% of the rows are common to both
    //    parties; each holds its share shuffled, keyed by sample IDs.
    let dataset = spec("a9a").scaled(50, 1);
    let (train, test) = generate(&dataset, 42);
    let mis = vsplit_misaligned(&train, 0.6, 42);
    let test_v = vsplit(&test);
    println!(
        "misaligned data: {} rows at A, {} rows at B, {} common",
        mis.party_a.ids.len(),
        mis.party_b.ids.len(),
        mis.overlap_rows.len()
    );

    let cfg = FedConfig::paillier_test();
    let tc = FedTrainConfig {
        base: TrainConfig {
            epochs: 3,
            ..Default::default()
        },
        snapshot_u_a: false,
        ..Default::default()
    };
    let spec_fed = FedSpec::Glm { out: 1 };

    // 2. PSI + federated training through the ordinary entry points:
    //    handshake, salted-digest intersection over the wire,
    //    Dataset::select into the shared canonical order, then the
    //    standard BlindFL run.
    let (a, b) = train_aligned(
        &cfg,
        &tc,
        mis.party_a.clone(),
        &mis.party_b,
        test_v.party_a.clone(),
        &test_v.party_b,
    );
    let (align_a, align_b) = (a.alignment.unwrap(), b.alignment.unwrap());
    let psi_bytes: u64 = [&align_a, &align_b]
        .iter()
        .flat_map(|al| &al.psi_bytes_per_link)
        .sum();
    println!(
        "PSI-aligned run   test AUC = {:.3}   ({} aligned rows, {:.1} KiB of PSI traffic)",
        b.test_metric,
        align_a.len(),
        psi_bytes as f64 / 1024.0,
    );

    // 3. The oracle: the same training run on the pre-aligned split of
    //    exactly the overlap rows. Bit-identical losses and metric —
    //    PSI changes *what* is trained on, never the math.
    let reference = train_federated(
        &spec_fed,
        &cfg,
        &tc,
        mis.aligned.party_a.clone(),
        mis.aligned.party_b.clone(),
        test_v.party_a.clone(),
        test_v.party_b.clone(),
        SEED,
    );
    let parity =
        b.losses == reference.report.losses && b.test_metric == reference.report.test_metric;
    println!(
        "pre-aligned run   test AUC = {:.3}   (bit parity: {parity})",
        reference.report.test_metric
    );

    // 4. Sanity: the intersection is exactly the planted overlap.
    let want: Vec<u64> = mis.overlap_rows.iter().map(|&r| sample_id(r)).collect();
    let intersection_ok = align_a.ids == want && align_b.ids == want;

    // 5. Limited overlap (Sun et al.): the guest first fits a local
    //    StandardScaler+PCA encoder on ALL of its rows — the 40%
    //    outside the intersection included — and the federated run
    //    trains on encoded features (train and test, same transform).
    let x_all = mis.party_a.data.num.as_ref().unwrap().to_dense();
    let encoder = LocalEncoder::fit(&x_all, 8, 12, 0x10ca1);
    let encoded_a = MisalignedParty {
        data: encoder.encode_dataset(&mis.party_a.data),
        ids: mis.party_a.ids.clone(),
    };
    let (_, encoded) = train_aligned(
        &cfg,
        &tc,
        encoded_a,
        &mis.party_b,
        encoder.encode_dataset(&test_v.party_a),
        &test_v.party_b,
    );
    println!(
        "limited-overlap   test AUC = {:.3}   (encoder {}→{} dims)",
        encoded.test_metric,
        encoder.input_dim(),
        encoder.dim(),
    );

    assert!(parity, "PSI-aligned run diverged from the pre-aligned run");
    assert!(intersection_ok, "intersection differs from planted overlap");
    println!("\npsi_align: OK (bit parity with pre-aligned training)");
}
