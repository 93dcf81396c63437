//! Federated gradient boosting end to end: train a SecureBoost-style
//! forest with two feature-holding guests and one label-holding host,
//! persist both model halves, reload them into fresh sessions, and
//! serve predictions through the micro-batching queue — verifying at
//! each step that the federated results are bit-identical to a
//! collocated XGBoost twin trained on the same rows. Runs on real
//! ciphertexts at the default key (512-bit, 4 pack slots), so guests
//! fold their `(Σg, Σh)` histogram rows two to a ciphertext and the host
//! asks for one child per split (`docs/TREES.md`).
//!
//! ```text
//! cargo run --release -p blindfl --example federated_trees
//! ```

use bf_datagen::{generate_tree, vsplit_multi};
use bf_ml::gbdt::{CollocatedGbdt, GbdtParams};
use blindfl::config::FedConfig;
use blindfl::multiparty::run_star;
use blindfl::serve::{queue, ServeConfig};
use blindfl::trees::{serve_gbdt_guest, serve_gbdt_host, train_gbdt};
use blindfl::{export_gbdt_guest, export_gbdt_host, import_gbdt_guest, import_gbdt_host};

const SEED: u64 = 23;
const DATA_SEED: u64 = 7;
const ROWS: usize = 128;
const FEATURES: usize = 8;
const GUESTS: usize = 2;

fn main() {
    let cfg = FedConfig::paillier_default();
    let params = GbdtParams {
        trees: 4,
        max_depth: 3,
        max_bins: 16,
        frac_bits: cfg.frac_bits,
        ..GbdtParams::default()
    };

    // A dataset whose signal is an XOR of two feature thresholds —
    // exactly what trees can represent and linear models cannot.
    let ds = generate_tree(ROWS, FEATURES, DATA_SEED);
    let split = vsplit_multi(&ds, GUESTS);

    println!(
        "training a federated forest: {ROWS} rows, {FEATURES} features \
         across {GUESTS} guests + host, {} trees of depth {}",
        params.trees, params.max_depth
    );
    let fed = train_gbdt(&cfg, &params, split.guests.clone(), &split.party_b, SEED);
    let (twin, twin_losses) = CollocatedGbdt::train(&ds, &params);
    assert_eq!(
        fed.host.losses, twin_losses,
        "loss curves must be bit-equal"
    );
    assert_eq!(
        fed.host.model.trees, twin.trees,
        "forests must be identical"
    );
    println!(
        "  logloss {:.4} → {:.4} over {} rounds (bit-identical to the \
         collocated twin)",
        fed.host.losses.first().unwrap(),
        fed.host.losses.last().unwrap(),
        fed.host.losses.len()
    );
    let stage = |stages: &[(&str, f64)], label: &str| {
        let secs = stages.iter().find(|(l, _)| *l == label).map(|(_, s)| *s);
        secs.unwrap_or(0.0) * 1e3
    };
    println!(
        "  {:.0} ms in trees: host {:.0} ms encrypt/upload + {:.0} ms decrypt/update, \
         guests {:?} ms fed-matmul; {:?} bytes guest → host",
        fed.host.tree_secs.iter().sum::<f64>() * 1e3,
        stage(&fed.host.stage_secs, "encrypt/upload"),
        stage(&fed.host.stage_secs, "decrypt/update"),
        fed.guests
            .iter()
            .map(|g| stage(&g.stage_secs, "fed-matmul").round())
            .collect::<Vec<_>>(),
        fed.guests.iter().map(|g| g.bytes_sent).collect::<Vec<_>>()
    );

    // Persist → reload, byte-exact.
    let host_blob = export_gbdt_host(&fed.host.model);
    let host_model = import_gbdt_host(&host_blob).expect("host model reload");
    let guest_models: Vec<_> = fed
        .guests
        .iter()
        .map(|g| import_gbdt_guest(&export_gbdt_guest(&g.model)).expect("guest model reload"))
        .collect();
    println!(
        "persisted: host {} bytes, guests {:?} bytes",
        host_blob.len(),
        fed.guests
            .iter()
            .map(|g| export_gbdt_guest(&g.model).len())
            .collect::<Vec<_>>()
    );

    // Serve every row through the queue over fresh sessions.
    let twin_margins = twin.predict(ds.num.as_ref().unwrap());
    let (_, (report, served)) = run_star(
        &cfg,
        SEED + 1,
        split.guests.into_iter().zip(guest_models).collect(),
        |(store, model), mut sess| {
            serve_gbdt_guest(&mut sess, &model, &store).expect("guest serve")
        },
        |mut sessions| {
            let (client, rq) = queue(16);
            let client_thread = std::thread::spawn(move || {
                (0..ROWS)
                    .map(|r| client.predict(r).expect("prediction").logits[0])
                    .collect::<Vec<f64>>()
            });
            let report = serve_gbdt_host(
                &mut sessions,
                &host_model,
                &split.party_b,
                &ServeConfig::default(),
                rq,
            )
            .expect("host serve");
            (report, client_thread.join().expect("client"))
        },
    );
    assert!(served
        .iter()
        .zip(&twin_margins)
        .all(|(s, t)| s.to_bits() == t.to_bits()));
    println!(
        "served {} rows in {} batches — every margin bit-identical to \
         twin.predict",
        report.requests, report.batches
    );
    println!("OK");
}
