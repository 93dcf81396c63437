//! Ad click-through-rate prediction with a federated Wide & Deep model
//! — the paper's E-commerce scenario (Figure 5): an ad platform
//! (Party B) holds click labels, campaign features and some user
//! fields; a partner (Party A) holds complementary user features,
//! including categorical fields that require embedding lookups.
//!
//! The Embed-MatMul source layer trains a *secret-shared* embedding
//! table: categorical indices never leave their owner, and no party
//! ever sees an embedding row in plaintext.
//!
//! ```text
//! cargo run --release -p blindfl --example ad_ctr_wdl
//! ```

use bf_datagen::{generate, spec, vsplit};
use bf_ml::models::{Model, WdlModel};
use bf_ml::TrainConfig;
use blindfl::config::FedConfig;
use blindfl::models::FedSpec;
use blindfl::train::{train_federated, FedTrainConfig};
use rand::SeedableRng;

fn main() {
    // avazu-shaped CTR data: sparse numerical (wide) + categorical
    // fields (deep), scaled to laptop size.
    let dataset = spec("avazu-app").scaled(4000, 100);
    let (train, test) = generate(&dataset, 77);
    let train_v = vsplit(&train);
    let test_v = vsplit(&test);
    let cat = train.cat.as_ref().unwrap();
    println!(
        "impressions: {} train; wide features: {}; categorical fields: {} (vocab {})",
        train.rows(),
        train.num_dim(),
        cat.fields(),
        cat.vocab()
    );

    let tc = TrainConfig {
        epochs: 8,
        ..Default::default()
    };
    let ftc = FedTrainConfig {
        base: tc.clone(),
        snapshot_u_a: false,
        ..Default::default()
    };
    let (_, host) = train_federated(
        &FedSpec::Wdl {
            emb_dim: 8,
            deep_hidden: vec![16],
            out: 1,
        },
        &FedConfig::plain(),
        &ftc,
        train_v.party_a.clone(),
        train_v.party_b.clone(),
        test_v.party_a.clone(),
        test_v.party_b.clone(),
        5,
    );
    println!("federated WDL test AUC      = {:.3}", host.test_metric);

    // Baselines: the platform alone, and the (forbidden-in-practice)
    // collocated model.
    let mut rng = rand::rngs::StdRng::seed_from_u64(6);
    let run =
        |ds_train: &bf_ml::Dataset, ds_test: &bf_ml::Dataset, rng: &mut rand::rngs::StdRng| {
            let cat = ds_train.cat.as_ref().unwrap();
            let mut m = WdlModel::new(
                rng,
                ds_train.num_dim(),
                cat.vocab(),
                cat.fields(),
                8,
                &[16],
                1,
            );
            bf_ml::train(&mut m, ds_train, ds_test, &tc).test_metric
        };
    println!(
        "platform-only WDL test AUC  = {:.3}",
        run(&train_v.party_b, &test_v.party_b, &mut rng)
    );
    println!(
        "collocated WDL test AUC     = {:.3}",
        run(&train, &test, &mut rng)
    );
    let _ = WdlModel::out_dim; // (silence unused-trait-import lint paths)
}
