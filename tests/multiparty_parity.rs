//! Multi-guest equivalence suite (paper Appendix C): an `M`-guest run
//! must be **loss-equivalent to the single-A run on the horizontally
//! concatenated guest features**, on both crypto backends and both
//! transports, with byte-identical per-link traffic accounting across
//! transports.
//!
//! The equivalence is proved in three links, each at its strongest
//! achievable tolerance:
//!
//! 1. **M = 1 is the single-A baseline, bit for bit**: a one-guest
//!    multi-stack run reproduces the classic two-party
//!    `train_federated` run exactly (same losses, same metric, same
//!    bytes up to the guest's `Hello` prologue) — and
//!    `vsplit_multi(ds, 1)`'s guest slice *is* `vsplit(ds)`'s Party A.
//! 2. **Every M trains the same virtually-joint matrix**: for
//!    `M ∈ {1, 2, 3}`, the federated per-batch loss trajectory matches
//!    a collocated plaintext twin — momentum SGD started from the
//!    run's *reconstructed* initialisation
//!    `W = [W_A(1); …; W_A(M); W_B]` on the concatenated features,
//!    driven through the identical batch schedule — within 1e-6 per
//!    batch, on Plain and on Paillier (36 fractional bits put the
//!    quantisation noise orders of magnitude below the tolerance).
//!    Equivalence of the M-guest and single-A runs to their twins is
//!    exactly "same SGD trajectory, different random init" — the only
//!    sense in which runs of different topologies can agree, since
//!    each guest draws its own initial shares.
//! 3. **Transports cannot matter**: in-process and TCP runs of the
//!    same M are bit-identical in losses/metric and byte-identical in
//!    per-link `TrafficStats`, both directions.

use std::net::TcpListener;

use bf_datagen::{generate, spec as dataset_spec, vsplit_multi, MultiVflData};
use bf_ml::models::GlmModel;
use bf_mpc::Endpoint;
use bf_tensor::Dense;
use blindfl::config::{Backend, FedConfig};
use blindfl::models::FedSpec;
use blindfl::multiparty::{accept_guests, join_host};
use blindfl::train::{
    run_party_a, run_party_b, train_federated, train_federated_multi, FedTrainConfig, PartyARun,
    PartyBRun,
};

const SEED: u64 = 41;
const DATA_SEED: u64 = 13;
const EPOCHS: usize = 2;
const BS: usize = 16;

fn train_cfg(epochs: usize) -> FedTrainConfig {
    FedTrainConfig {
        base: bf_ml::TrainConfig {
            epochs,
            batch_size: BS,
            ..Default::default()
        },
        snapshot_u_a: false,
        ..Default::default()
    }
}

/// High-precision Paillier: 36 fractional bits push the fixed-point
/// quantisation far below the suite's 1e-6 loss tolerance while the
/// 256-bit test modulus keeps the runs fast.
fn paillier_hi() -> FedConfig {
    let mut cfg = FedConfig::paillier_test();
    cfg.frac_bits = 36;
    cfg
}

/// Everything one multi-guest training cell produces.
struct MultiRun {
    losses: Vec<f64>,
    test_metric: f64,
    bytes_a_to_b: Vec<u64>,
    bytes_b_to_a: Vec<u64>,
    /// Reconstructed stacked weights `[W_A(1); …; W_A(M); W_B]`.
    weights: Dense,
}

/// Reconstruct the stacked effective weights from the trained halves.
fn stacked_weights(guests: &[PartyARun], party_b: &blindfl::models::PartyBModel) -> Dense {
    let mmb = party_b.matmul();
    let mut rows: Vec<f64> = Vec::new();
    let mut n_rows = 0;
    let out = mmb.u_own().cols();
    for (i, g) in guests.iter().enumerate() {
        let w_a = g.model.matmul().u_own().add(mmb.v_peer_of(i));
        rows.extend_from_slice(w_a.data());
        n_rows += w_a.rows();
    }
    let mut w_b = mmb.u_own().clone();
    for g in guests {
        w_b.add_assign(g.model.matmul().v_peer());
    }
    rows.extend_from_slice(w_b.data());
    n_rows += w_b.rows();
    Dense::from_vec(n_rows, out, rows)
}

/// One M-guest federated-LR run. `tcp = false` uses the in-process
/// harness; `tcp = true` runs one socket per guest with the guests
/// connecting concurrently (the hellos restore link order).
fn run_multi(cfg: &FedConfig, m: usize, rows: usize, epochs: usize, tcp: bool) -> MultiRun {
    run_multi_spec(cfg, &FedSpec::Glm { out: 1 }, "a9a", m, rows, epochs, tcp)
}

/// [`run_multi`] for any MatMul-source architecture and dataset.
fn run_multi_spec(
    cfg: &FedConfig,
    fed: &FedSpec,
    data: &str,
    m: usize,
    rows: usize,
    epochs: usize,
    tcp: bool,
) -> MultiRun {
    let ds = dataset_spec(data).scaled(rows, 1);
    let (train, test) = generate(&ds, DATA_SEED);
    let train_v = vsplit_multi(&train, m);
    let test_v = vsplit_multi(&test, m);
    let fed = fed.clone();
    let tc = train_cfg(epochs);

    let (guests, b) = if !tcp {
        train_federated_multi(
            &fed,
            cfg,
            &tc,
            train_v.guests,
            train_v.party_b,
            test_v.guests,
            test_v.party_b,
            SEED,
        )
    } else {
        tcp_multi(cfg, &fed, &tc, train_v, test_v)
    };
    MultiRun {
        weights: stacked_weights(&guests, &b.model),
        losses: b.losses,
        test_metric: b.test_metric,
        bytes_a_to_b: guests.iter().map(|g| g.bytes_sent).collect(),
        bytes_b_to_a: b.bytes_sent_per_link,
    }
}

/// [`train_federated_multi`] with one localhost socket per guest, the
/// guests connecting concurrently.
fn tcp_multi(
    cfg: &FedConfig,
    fed: &FedSpec,
    tc: &FedTrainConfig,
    train_v: MultiVflData,
    test_v: MultiVflData,
) -> (Vec<PartyARun>, PartyBRun) {
    let m = train_v.guests.len();
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind localhost");
    let addr = listener.local_addr().unwrap();
    std::thread::scope(|s| {
        let handles: Vec<_> = (train_v.guests.into_iter().zip(test_v.guests).enumerate())
            .map(|(i, (train_a, test_a))| {
                s.spawn(move || {
                    let ep = Endpoint::tcp_connect(addr).expect("guest connect");
                    let mut sess = join_host(ep, cfg, i, m, SEED).expect("guest prologue");
                    run_party_a(&mut sess, fed, tc, &train_a, &test_a).expect("guest run")
                })
            })
            .collect();
        let accepted = (0..m)
            .map(|_| Endpoint::tcp_accept(&listener).expect("accept"))
            .collect();
        let mut sessions = accept_guests(accepted, cfg, SEED).expect("host prologue");
        let b = run_party_b(&mut sessions, fed, tc, &train_v.party_b, &test_v.party_b)
            .expect("party B run");
        let guests = handles
            .into_iter()
            .map(|h| h.join().expect("guest thread"))
            .collect();
        (guests, b)
    })
}

/// The collocated plaintext twin: momentum SGD from the reconstructed
/// federated initialisation, on the full concatenated feature matrix,
/// through the identical batch schedule. Returns (per-batch losses,
/// test metric).
fn plaintext_twin(cfg: &FedConfig, w0: Dense, rows: usize, epochs: usize) -> (Vec<f64>, f64) {
    let ds = dataset_spec("a9a").scaled(rows, 1);
    let (train, test) = generate(&ds, DATA_SEED);
    let mut model = GlmModel::from_weights(w0);
    let base = bf_ml::TrainConfig {
        epochs,
        batch_size: BS,
        lr: cfg.lr,
        momentum: cfg.momentum,
        ..Default::default()
    };
    let report = bf_ml::train(&mut model, &train, &test, &base);
    (report.losses, report.test_metric)
}

/// Max |a - b| over two per-batch loss curves (panics on length skew).
fn max_gap(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "batch counts differ");
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

/// Links 1 + 2 for one backend: every `M ∈ {1, 2, 3}` matches its
/// concatenated collocated twin within `tol` per batch, and the twins
/// all train the same matrix — which ties each M-guest run to the
/// single-A baseline run asserted in the same loop.
fn assert_concat_equivalence(cfg: FedConfig, rows: usize, tol: f64) {
    for m in [1usize, 2, 3] {
        // Zero-epoch run captures the reconstructed initialisation.
        let init = run_multi(&cfg, m, rows, 0, false);
        assert!(init.losses.is_empty());
        let full = run_multi(&cfg, m, rows, EPOCHS, false);
        let (twin_losses, twin_metric) = plaintext_twin(&cfg, init.weights, rows, EPOCHS);
        let gap = max_gap(&full.losses, &twin_losses);
        assert!(
            gap <= tol,
            "M={m}: federated loss trajectory diverged from the concatenated \
             collocated twin (max gap {gap:e} > {tol:e})"
        );
        let metric_gap = (full.test_metric - twin_metric).abs();
        assert!(
            metric_gap <= tol,
            "M={m}: test metric diverged from the twin ({metric_gap:e})"
        );
    }
}

#[test]
fn plain_multi_guest_matches_concatenated_single_a_baseline() {
    assert_concat_equivalence(FedConfig::plain(), 64, 1e-6);
}

#[test]
fn paillier_multi_guest_matches_concatenated_single_a_baseline() {
    assert_concat_equivalence(paillier_hi(), 24, 1e-6);
}

#[test]
fn single_guest_is_the_two_party_baseline_bit_for_bit() {
    // Link 1 at full strength: the M = 1 multi run *is* the classic
    // two-party single-A run — identical losses, metric, and traffic
    // (the Hello prologue is the only extra frame, and its size is
    // exactly accounted). The Packed cells have ≥ 2 output columns, so
    // every upload of either party takes the packed layout: a host that
    // shipped scalar ciphertexts to its one guest would show in the
    // host→guest bytes.
    let mlp = FedSpec::Mlp {
        widths: vec![4, 3, 1],
    };
    let cells = [
        (FedConfig::plain(), FedSpec::Glm { out: 1 }, "a9a", 64),
        (
            FedConfig::paillier_test(),
            FedSpec::Glm { out: 3 },
            "connect-4",
            256,
        ),
        (FedConfig::paillier_test(), mlp, "a9a", 128),
    ];
    for (cfg, fed, data, rows) in cells {
        let ds = dataset_spec(data).scaled(rows, 1);
        let (train, test) = generate(&ds, DATA_SEED);
        let train_v = bf_datagen::vsplit(&train);
        let test_v = bf_datagen::vsplit(&test);
        let tc = train_cfg(EPOCHS);
        let two = train_federated(
            &fed,
            &cfg,
            &tc,
            train_v.party_a.clone(),
            train_v.party_b.clone(),
            test_v.party_a.clone(),
            test_v.party_b.clone(),
            SEED,
        );
        let multi = run_multi_spec(&cfg, &fed, data, 1, rows, EPOCHS, false);
        assert_eq!(two.1.losses, multi.losses);
        assert_eq!(two.1.test_metric, multi.test_metric);
        assert_eq!(multi.bytes_b_to_a, vec![two.1.bytes_sent_per_link[0]]);
        let hello = bf_mpc::Msg::Hello { index: 0, total: 1 }.wire_size() as u64;
        assert_eq!(multi.bytes_a_to_b, vec![two.0.bytes_sent + hello]);
    }
}

/// Link 3 for one backend: in-process and TCP runs are bit-identical
/// in losses/metric and byte-identical per link, both directions.
fn assert_transport_parity(cfg: FedConfig, rows: usize) {
    for m in [2usize, 3] {
        let inproc = run_multi(&cfg, m, rows, EPOCHS, false);
        let tcp = run_multi(&cfg, m, rows, EPOCHS, true);
        assert_eq!(
            inproc.losses, tcp.losses,
            "M={m}: TCP loss curve diverged from in-process"
        );
        assert_eq!(
            inproc.test_metric, tcp.test_metric,
            "M={m}: metric diverged"
        );
        assert_eq!(
            inproc.bytes_a_to_b, tcp.bytes_a_to_b,
            "M={m}: per-link A→B bytes diverged across transports"
        );
        assert_eq!(
            inproc.bytes_b_to_a, tcp.bytes_b_to_a,
            "M={m}: per-link B→A bytes diverged across transports"
        );
        assert!(inproc.bytes_a_to_b.iter().all(|&b| b > 0));
        assert!(inproc.bytes_b_to_a.iter().all(|&b| b > 0));
        // Same trained model on both transports, coordinate for
        // coordinate.
        assert_eq!(inproc.weights.data(), tcp.weights.data());
    }
}

#[test]
fn plain_transport_parity_per_link() {
    assert_transport_parity(FedConfig::plain(), 64);
}

#[test]
fn paillier_transport_parity_per_link() {
    assert_transport_parity(paillier_hi(), 24);
}

#[test]
fn paillier_backend_uses_real_ciphertexts() {
    // Guard against the hi-precision config accidentally degrading to
    // the Plain backend (which would vacuously pass the 1e-6 bars).
    assert!(matches!(
        paillier_hi().backend,
        Backend::Paillier { key_bits: 256 }
    ));
}
