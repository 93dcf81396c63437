//! Cross-backend determinism for the pipelined training engine.
//!
//! The contract (`blindfl::engine` docs): pipelining reorders
//! wall-clock work, never math or wire content. One seed, four runs —
//! in-process sync, in-process pipelined, TCP sync, TCP pipelined —
//! must produce **bit-identical** per-batch (and hence per-epoch) loss
//! curves and **exactly equal** A→B / B→A `TrafficStats` byte counts.
//! Verified on the Plain and the Paillier backend.

use std::net::TcpListener;

use bf_datagen::{generate, spec as dataset_spec, vsplit};
use bf_mpc::Endpoint;
use blindfl::config::FedConfig;
use blindfl::engine::TrainMode;
use blindfl::models::FedSpec;
use blindfl::session::{party_seed, Role, Session};
use blindfl::train::{run_party_a, run_party_b, FedTrainConfig};

const SEED: u64 = 29;
const DATA_SEED: u64 = 3;
const EPOCHS: usize = 2;

fn train_cfg(mode: TrainMode) -> FedTrainConfig {
    FedTrainConfig {
        base: bf_ml::TrainConfig {
            epochs: EPOCHS,
            batch_size: 16,
            ..Default::default()
        },
        snapshot_u_a: false,
        mode,
        ..Default::default()
    }
}

/// One full federated-LR run; `connect` builds the endpoint pair (or
/// the two ends of a socket). Returns per-batch losses, the test
/// metric, and (A→B, B→A) byte counts.
struct RunResult {
    losses: Vec<f64>,
    test_metric: f64,
    bytes_a_to_b: u64,
    bytes_b_to_a: u64,
}

fn run_one(cfg: &FedConfig, rows: usize, mode: TrainMode, tcp: bool) -> RunResult {
    let ds = dataset_spec("a9a").scaled(rows, 1);
    let (train, test) = generate(&ds, DATA_SEED);
    let train_v = vsplit(&train);
    let test_v = vsplit(&test);
    let fed = FedSpec::Glm { out: 1 };
    let tc = train_cfg(mode);

    let (ep_a, ep_b) = if tcp {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind localhost");
        let addr = listener.local_addr().unwrap();
        let guest = std::thread::spawn(move || Endpoint::tcp_connect(addr).expect("connect"));
        let host = Endpoint::tcp_accept(&listener).expect("accept");
        (guest.join().expect("guest connect"), host)
    } else {
        bf_mpc::channel_pair()
    };

    let cfg_a = cfg.clone();
    let fed_a = fed.clone();
    let tc_a = tc.clone();
    let (train_a, test_a) = (train_v.party_a.clone(), test_v.party_a.clone());
    let party_a = std::thread::Builder::new()
        .name("parity-party-a".into())
        .stack_size(16 << 20)
        .spawn(move || {
            let mut sess = Session::handshake(ep_a, cfg_a, Role::A, party_seed(Role::A, SEED))
                .expect("A handshake");
            let run = run_party_a(&mut sess, &fed_a, &tc_a, &train_a, &test_a).expect("party A");
            run.bytes_sent
        })
        .expect("spawn party A");

    let mut sess = Session::handshake(ep_b, cfg.clone(), Role::B, party_seed(Role::B, SEED))
        .expect("B handshake");
    let run_b =
        run_party_b(&mut sess, &fed, &tc, &train_v.party_b, &test_v.party_b).expect("party B");
    let bytes_a_to_b = party_a.join().expect("party A thread");
    RunResult {
        losses: run_b.losses,
        test_metric: run_b.test_metric,
        bytes_a_to_b,
        bytes_b_to_a: run_b.bytes_sent_per_link[0],
    }
}

/// Split a flat per-batch loss curve into per-epoch chunks (all four
/// runs share the schedule, so equal chunking is sound).
fn per_epoch(losses: &[f64]) -> Vec<&[f64]> {
    assert_eq!(losses.len() % EPOCHS, 0, "batches must divide into epochs");
    losses.chunks(losses.len() / EPOCHS).collect()
}

fn assert_four_way_parity(cfg: FedConfig, rows: usize) {
    let cells: Vec<(&str, RunResult)> = vec![
        (
            "in-process sync",
            run_one(&cfg, rows, TrainMode::Sync, false),
        ),
        (
            "in-process pipelined",
            run_one(&cfg, rows, TrainMode::pipelined(), false),
        ),
        ("tcp sync", run_one(&cfg, rows, TrainMode::Sync, true)),
        (
            "tcp pipelined",
            run_one(&cfg, rows, TrainMode::pipelined(), true),
        ),
    ];
    let (ref_name, reference) = &cells[0];
    assert!(!reference.losses.is_empty());
    assert!(reference.bytes_a_to_b > 0 && reference.bytes_b_to_a > 0);
    for (name, run) in &cells[1..] {
        // Bit-identical loss curve, compared per epoch for a readable
        // failure message.
        assert_eq!(
            run.losses.len(),
            reference.losses.len(),
            "{name}: batch count differs from {ref_name}"
        );
        for (e, (got, want)) in per_epoch(&run.losses)
            .iter()
            .zip(per_epoch(&reference.losses))
            .enumerate()
        {
            assert_eq!(got, &want, "{name}: epoch {e} loss curve diverged");
        }
        assert_eq!(
            run.test_metric, reference.test_metric,
            "{name}: test metric diverged"
        );
        // Exact traffic parity, both directions.
        assert_eq!(
            run.bytes_a_to_b, reference.bytes_a_to_b,
            "{name}: A→B bytes diverged"
        );
        assert_eq!(
            run.bytes_b_to_a, reference.bytes_b_to_a,
            "{name}: B→A bytes diverged"
        );
    }
}

#[test]
fn plain_backend_four_way_parity() {
    assert_four_way_parity(FedConfig::plain(), 64);
}

#[test]
fn paillier_backend_four_way_parity() {
    assert_four_way_parity(FedConfig::paillier_test(), 32);
}
