//! The serving equivalence contract (`docs/SERVING.md`): batched
//! served predictions are **bit-identical** to the in-process
//! prediction forward pass on the same rows — micro-batching and the
//! serve loop change *where* the forward runs, never its bytes.
//!
//! Matrix covered here:
//! * 2-party, Plain and Paillier backends, in-process transport
//! * 2-party over **TCP** (host thread ↔ guest thread on localhost)
//! * multi-guest (`M = 2`), Plain backend
//!
//! Every cell trains a model, round-trips both halves through the
//! [`blindfl::persist`] byte format (the serve path is always
//! train → persist → serve), then compares the serve stack against a
//! direct `predict_batch` run under identical session seeds and batch
//! partitions. Also pins the serve loop's traffic accounting: the
//! served run costs exactly the direct run's bytes plus one `Support`
//! frame per batch (the row-index upload) plus the shutdown sentinel.

use bf_datagen::{generate, spec, vsplit, vsplit_multi};
use bf_ml::data::Dataset;
use bf_mpc::transport::TransportError;
use bf_mpc::{Endpoint, Msg};
use blindfl::config::FedConfig;
use blindfl::models::{FedSpec, PartyBModel};
use blindfl::multiparty::run_star;
use blindfl::persist::{export_party_a, export_party_b, import_party_a, import_party_b};
use blindfl::serve::{self, serve_party_a, serve_party_b, ServeConfig};
use blindfl::session::{party_seed, run_pair, Role, Session};
use blindfl::train::{train_federated, train_federated_multi, FedTrainConfig};

const TRAIN_SEED: u64 = 41;
/// The serving sessions regenerate the training keys from the seed (the
/// second custody path of `docs/SERVING.md`), so it must *be* the
/// training seed: under any other, the Paillier cell's ciphertext
/// caches open under the wrong keys and served ≡ direct compares noise
/// with noise. (`tests/gateway.rs` covers the persisted-key path.)
const SERVE_SEED: u64 = TRAIN_SEED;

fn train_cfg(epochs: usize) -> FedTrainConfig {
    FedTrainConfig {
        base: bf_ml::TrainConfig {
            epochs,
            batch_size: 8,
            ..Default::default()
        },
        snapshot_u_a: false,
        ..Default::default()
    }
}

/// Train a two-party LR and export both halves through the
/// persistence format.
fn train_and_export(cfg: &FedConfig, rows: usize) -> (Vec<u8>, Vec<u8>, Dataset, Dataset) {
    let ds = spec("a9a").scaled(rows, 1);
    let (train, test) = generate(&ds, 7);
    let train_v = vsplit(&train);
    let test_v = vsplit(&test);
    let outcome = train_federated(
        &FedSpec::Glm { out: 1 },
        cfg,
        &train_cfg(1),
        train_v.party_a,
        train_v.party_b,
        test_v.party_a.clone(),
        test_v.party_b.clone(),
        TRAIN_SEED,
    );
    (
        export_party_a(&outcome.party_a),
        export_party_b(&outcome.party_b),
        test_v.party_a,
        test_v.party_b,
    )
}

/// Sequential row chunks of size `bs` — the canonical serve-time batch
/// partition both comparison paths use.
fn chunks(n: usize, bs: usize) -> Vec<Vec<usize>> {
    (0..n)
        .collect::<Vec<_>>()
        .chunks(bs)
        .map(<[usize]>::to_vec)
        .collect()
}

/// The reference: load both halves and run the ordinary training-stack
/// prediction forward over the chunk partition. Returns per-row logit
/// bits and B's prediction-phase sent bytes (post-handshake delta, to
/// match the serve reports' serve-phase-only accounting).
fn direct_predictions(
    cfg: &FedConfig,
    bytes_a: &[u8],
    bytes_b: &[u8],
    store_a: &Dataset,
    store_b: &Dataset,
    bs: usize,
) -> (Vec<u64>, u64) {
    let n = store_a.rows();
    let store_a = store_a.clone();
    let bytes_a = bytes_a.to_vec();
    let (_, out) = run_pair(
        cfg,
        SERVE_SEED,
        move |mut sess| {
            let mut model = import_party_a(&bytes_a).unwrap();
            for idx in chunks(n, bs) {
                model
                    .predict_batch(&mut sess, &store_a.select(&idx))
                    .unwrap();
            }
        },
        move |mut sess| {
            let mut model = import_party_b(bytes_b).unwrap();
            let bytes_base = sess.ep.stats().bytes();
            let mut bits = Vec::new();
            for idx in chunks(n, bs) {
                let logits = model
                    .predict_batch(&mut sess, &store_b.select(&idx))
                    .unwrap();
                bits.extend(logits.data().iter().map(|v| v.to_bits()));
            }
            (bits, sess.ep.stats().bytes() - bytes_base)
        },
    );
    out
}

/// The serve stack over an arbitrary endpoint pair: guest serve loop
/// on one side, micro-batching server on the other, all `n` requests
/// pre-enqueued so the coalesced batches equal the chunk partition.
fn served_predictions(
    cfg: &FedConfig,
    ep_a: Endpoint,
    ep_b: Endpoint,
    bytes_a: &[u8],
    bytes_b: &[u8],
    store_a: &Dataset,
    store_b: &Dataset,
    bs: usize,
) -> (Vec<u64>, serve::ServeReport) {
    let n = store_a.rows();
    let store_a = store_a.clone();
    let bytes_a = bytes_a.to_vec();
    let cfg_a = cfg.clone();
    let guest = std::thread::Builder::new()
        .name("serve-guest".into())
        .stack_size(16 << 20)
        .spawn(move || {
            let mut sess =
                Session::handshake(ep_a, cfg_a, Role::A, party_seed(Role::A, SERVE_SEED)).unwrap();
            let mut model = import_party_a(&bytes_a).unwrap();
            serve_party_a(&mut sess, &mut model, &store_a).unwrap()
        })
        .unwrap();
    let mut sess =
        Session::handshake(ep_b, cfg.clone(), Role::B, party_seed(Role::B, SERVE_SEED)).unwrap();
    let mut model = import_party_b(bytes_b).unwrap();
    let (client, queue) = serve::queue(n);
    let pending: Vec<_> = (0..n).map(|r| client.submit(r).unwrap()).collect();
    drop(client);
    let report = serve_party_b(
        &mut sess,
        &mut model,
        store_b,
        &ServeConfig { max_batch: bs },
        queue,
    )
    .unwrap();
    let guest_report = guest.join().unwrap();
    assert_eq!(guest_report.rows, n as u64);
    assert_eq!(guest_report.batches, report.batches);
    let mut bits = Vec::new();
    for (r, p) in pending.into_iter().enumerate() {
        let pred = p.wait().unwrap();
        // Request r rides chunk r/bs; the final chunk may be short.
        assert_eq!(pred.batch_rows, chunks(n, bs)[r / bs].len());
        bits.extend(pred.logits.iter().map(|v| v.to_bits()));
    }
    (bits, report)
}

/// One full 2-party cell: direct vs served over in-process channels.
fn check_two_party(cfg: &FedConfig, rows: usize, bs: usize) {
    let (bytes_a, bytes_b, store_a, store_b) = train_and_export(cfg, rows);
    let n = store_a.rows();
    let (direct_bits, direct_bytes) =
        direct_predictions(cfg, &bytes_a, &bytes_b, &store_a, &store_b, bs);
    let (ep_a, ep_b) = bf_mpc::channel_pair();
    let (served_bits, report) =
        served_predictions(cfg, ep_a, ep_b, &bytes_a, &bytes_b, &store_a, &store_b, bs);
    assert_eq!(served_bits, direct_bits, "served logits diverged");
    assert_eq!(report.requests, n as u64);
    let expected_sizes: Vec<usize> = chunks(n, bs).iter().map(Vec::len).collect();
    assert_eq!(report.batches, expected_sizes.len() as u64);
    assert_eq!(report.batch_sizes, expected_sizes);
    // Traffic contract: serving adds exactly one Support frame per
    // batch plus the shutdown sentinel on top of the direct forwards.
    let support_bytes: u64 = report
        .batch_sizes
        .iter()
        .map(|&b| Msg::Support(vec![0; b]).wire_size() as u64)
        .sum();
    let shutdown = Msg::U64(0).wire_size() as u64;
    assert_eq!(
        report.bytes_sent,
        direct_bytes + support_bytes + shutdown,
        "serve-loop traffic accounting drifted"
    );
}

#[test]
fn served_equals_direct_forward_two_party_plain() {
    check_two_party(&FedConfig::plain(), 48, 8);
}

#[test]
fn served_equals_direct_forward_two_party_paillier() {
    // Real ciphertexts: the loaded caches decrypt under the
    // seed-regenerated session keys, and the served pass still
    // reproduces the direct pass bit for bit.
    check_two_party(&FedConfig::paillier_test(), 24, 8);
}

#[test]
fn served_equals_direct_forward_over_tcp() {
    // Same contract with the serve session on real sockets: the wire
    // changes, the bits do not.
    let cfg = FedConfig::plain();
    let (bytes_a, bytes_b, store_a, store_b) = train_and_export(&cfg, 48);
    let bs = 8;
    let (direct_bits, _) = direct_predictions(&cfg, &bytes_a, &bytes_b, &store_a, &store_b, bs);
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let connect = std::thread::spawn(move || Endpoint::tcp_connect(addr).unwrap());
    let ep_b = Endpoint::tcp_accept(&listener).unwrap();
    let ep_a = connect.join().unwrap();
    let (served_bits, _) =
        served_predictions(&cfg, ep_a, ep_b, &bytes_a, &bytes_b, &store_a, &store_b, bs);
    assert_eq!(served_bits, direct_bits);
}

#[test]
fn client_disconnect_mid_request_leaves_the_serve_loop_running() {
    // Fault-tolerance regression: a client that submits a request and
    // then disconnects (drops its `PendingPrediction`) before the
    // answer arrives must not stall or kill the serve loop — the
    // abandoned reply lands on a closed channel, the batch still
    // serves, and every still-connected client gets its exact answer.
    let cfg = FedConfig::plain();
    let (bytes_a, bytes_b, store_a, store_b) = train_and_export(&cfg, 48);
    let bs = 8;
    let n = store_a.rows();
    let (direct_bits, _) = direct_predictions(&cfg, &bytes_a, &bytes_b, &store_a, &store_b, bs);

    let (ep_a, ep_b) = bf_mpc::channel_pair();
    let cfg_a = cfg.clone();
    let store_a2 = store_a.clone();
    let guest = std::thread::Builder::new()
        .name("serve-guest".into())
        .stack_size(16 << 20)
        .spawn(move || {
            let mut sess =
                Session::handshake(ep_a, cfg_a, Role::A, party_seed(Role::A, SERVE_SEED)).unwrap();
            let mut model = import_party_a(&bytes_a).unwrap();
            serve_party_a(&mut sess, &mut model, &store_a2).unwrap()
        })
        .unwrap();
    let mut sess =
        Session::handshake(ep_b, cfg.clone(), Role::B, party_seed(Role::B, SERVE_SEED)).unwrap();
    let mut model = import_party_b(&bytes_b).unwrap();
    let (client, queue) = serve::queue(n);
    let pending: Vec<_> = (0..n).map(|r| client.submit(r).unwrap()).collect();
    drop(client);
    // Every odd-row client hangs up while its request is in flight —
    // disconnects land in every coalesced batch, not just one.
    let survivors: Vec<_> = pending
        .into_iter()
        .enumerate()
        .filter(|(r, _)| r % 2 == 0)
        .collect();
    let report = serve_party_b(
        &mut sess,
        &mut model,
        &store_b,
        &ServeConfig { max_batch: bs },
        queue,
    )
    .expect("abandoned requests must not kill the serve loop");
    // The loop served the full queue, abandoned requests included, and
    // the guest saw every row.
    assert_eq!(report.requests, n as u64);
    let guest_report = guest.join().unwrap();
    assert_eq!(guest_report.rows, n as u64);
    // Surviving clients still get bit-exact answers.
    assert!(!survivors.is_empty());
    for (r, p) in survivors {
        let pred = p.wait().unwrap();
        let bits: Vec<u64> = pred.logits.iter().map(|v| v.to_bits()).collect();
        assert_eq!(bits, vec![direct_bits[r]], "row {r}");
    }
}

#[test]
fn a_blob_under_other_keys_is_a_setup_error_at_both_ends() {
    // The ciphertext caches of a persisted model open only under the
    // keys they were built with. Served in a session of another backend
    // (Paillier blob, Plain session) or another key size (256-bit blob,
    // 512-bit session), each end refuses the model before it sends a
    // byte, instead of panicking in a kernel.
    let ds = spec("a9a").scaled(16, 1);
    let (train, test) = generate(&ds, 7);
    let (train_v, test_v) = (vsplit(&train), vsplit(&test));
    let outcome = train_federated(
        // A two-wide source layer, so the caches pack.
        &FedSpec::Mlp { widths: vec![2, 1] },
        &FedConfig::paillier_test(),
        &train_cfg(1),
        train_v.party_a,
        train_v.party_b,
        test_v.party_a.clone(),
        test_v.party_b.clone(),
        TRAIN_SEED,
    );
    let (bytes_a, bytes_b) = (
        export_party_a(&outcome.party_a),
        export_party_b(&outcome.party_b),
    );
    let wider = FedConfig {
        backend: blindfl::config::Backend::Paillier { key_bits: 512 },
        ..FedConfig::paillier_test()
    };
    for cfg in [FedConfig::plain(), wider] {
        let store_a = test_v.party_a.clone();
        let bytes_a = bytes_a.clone();
        let (guest, host) = run_pair(
            &cfg,
            SERVE_SEED,
            move |mut sess| {
                let mut model = import_party_a(&bytes_a).unwrap();
                serve_party_a(&mut sess, &mut model, &store_a).map(drop)
            },
            |mut sess| {
                let mut model = import_party_b(&bytes_b).unwrap();
                let (client, queue) = serve::queue(1);
                let _pending = client.submit(0).unwrap();
                drop(client);
                let cfg = ServeConfig { max_batch: 1 };
                serve_party_b(&mut sess, &mut model, &test_v.party_b, &cfg, queue).map(drop)
            },
        );
        for (end, got) in [("guest", guest), ("host", host)] {
            assert!(
                matches!(got, Err(TransportError::Setup(_))),
                "{:?} {end}: {got:?}",
                cfg.backend
            );
        }
    }
}

#[test]
fn served_equals_direct_forward_multi_guest() {
    // M = 2 guests: the host's serve loop broadcasts each coalesced
    // batch's rows to every link; every guest runs the unmodified
    // serve_party_a. Bit-parity against the direct multi-guest
    // prediction pass from the same persisted state.
    let m = 2usize;
    let bs = 8;
    let cfg = FedConfig::plain();
    let ds = spec("a9a").scaled(48, 1);
    let (train, test) = generate(&ds, 7);
    let train_v = vsplit_multi(&train, m);
    let test_v = vsplit_multi(&test, m);
    let test_guests = test_v.guests.clone();
    let (guests, host) = train_federated_multi(
        &FedSpec::Glm { out: 1 },
        &cfg,
        &train_cfg(1),
        train_v.guests,
        train_v.party_b,
        test_guests.clone(),
        test_v.party_b.clone(),
        TRAIN_SEED,
    );
    let guest_bytes: Vec<Vec<u8>> = guests.iter().map(|g| export_party_a(&g.model)).collect();
    let host_bytes = export_party_b(&host.model);
    let n = test_v.party_b.rows();

    // Direct multi-guest prediction pass from the persisted state.
    let run_host = |serve_mode: bool| -> Vec<u64> {
        let guest = |(store, bytes): (&Dataset, &Vec<u8>), mut sess: Session| {
            let mut model = import_party_a(bytes).unwrap();
            if serve_mode {
                serve_party_a(&mut sess, &mut model, store).unwrap();
            } else {
                for idx in chunks(store.rows(), bs) {
                    model.predict_batch(&mut sess, &store.select(&idx)).unwrap();
                }
            }
        };
        let host = |mut sessions: Vec<Session>| {
            let mut model: PartyBModel = import_party_b(&host_bytes).unwrap();
            if serve_mode {
                let (client, queue) = serve::queue(n);
                let pending: Vec<_> = (0..n).map(|r| client.submit(r).unwrap()).collect();
                drop(client);
                let report = serve_party_b(
                    &mut sessions,
                    &mut model,
                    &test_v.party_b,
                    &ServeConfig { max_batch: bs },
                    queue,
                )
                .unwrap();
                assert_eq!(report.requests, n as u64);
                pending
                    .into_iter()
                    .flat_map(|p| p.wait().unwrap().logits)
                    .map(|v| v.to_bits())
                    .collect()
            } else {
                let mut bits = Vec::new();
                for idx in chunks(n, bs) {
                    let logits = model
                        .predict_batch(&mut sessions, &test_v.party_b.select(&idx))
                        .unwrap();
                    bits.extend(logits.data().iter().map(|v| v.to_bits()));
                }
                bits
            }
        };
        let links = test_guests.iter().zip(&guest_bytes).collect();
        run_star(&cfg, SERVE_SEED, links, guest, host).1
    };

    let direct = run_host(false);
    let served = run_host(true);
    assert_eq!(served, direct);

    // Consistency with the two-party stack: a PartyAModel that served
    // a multi link is still the unmodified two-party guest half.
    assert_eq!(direct.len(), n);
}
