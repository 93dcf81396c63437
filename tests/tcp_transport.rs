//! End-to-end federated runs across the **TCP** transport.
//!
//! The acceptance bar for the wire protocol: a federated-LR run whose
//! parties talk through real sockets (frames encoded/decoded per
//! `docs/WIRE_PROTOCOL.md`) must produce the *same* loss curve as the
//! in-process channel transport (±1e-6; in practice bit-identical,
//! since both parties derive every random draw from `(role, seed)`),
//! and `TrafficStats::bytes()` must match the in-process byte count
//! exactly — the paper's Table 7/8 traffic numbers are
//! transport-independent. Verified on both the Plain and the Paillier
//! backend.

use std::net::TcpListener;

use bf_datagen::{generate, spec as dataset_spec, vsplit};
use bf_mpc::Endpoint;
use blindfl::config::FedConfig;
use blindfl::models::FedSpec;
use blindfl::session::{party_seed, Role, Session};
use blindfl::train::{run_party_a, run_party_b, train_federated, FedTrainConfig, PartyBRun};

const SEED: u64 = 23;

fn train_cfg() -> FedTrainConfig {
    FedTrainConfig {
        base: bf_ml::TrainConfig {
            epochs: 1,
            batch_size: 32,
            ..Default::default()
        },
        snapshot_u_a: false,
        ..Default::default()
    }
}

/// Run the full federated-LR flow over localhost TCP (Party A on a
/// thread behind a real socket); returns Party B's run plus Party A's
/// sent-byte count.
fn run_over_tcp(cfg: &FedConfig, rows: usize) -> (PartyBRun, u64) {
    let ds = dataset_spec("a9a").scaled(rows, 1);
    let (train, test) = generate(&ds, 5);
    let train_v = vsplit(&train);
    let test_v = vsplit(&test);
    let fed = FedSpec::Glm { out: 1 };
    let tc = train_cfg();

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind localhost");
    let addr = listener.local_addr().unwrap();
    let cfg_a = cfg.clone();
    let fed_a = fed.clone();
    let tc_a = tc.clone();
    let (train_a, test_a) = (train_v.party_a.clone(), test_v.party_a.clone());
    let guest = std::thread::Builder::new()
        .name("tcp-party-a".into())
        .stack_size(16 << 20)
        .spawn(move || {
            let ep = Endpoint::tcp_connect(addr).expect("connect");
            let mut sess = Session::handshake(ep, cfg_a, Role::A, party_seed(Role::A, SEED))
                .expect("guest handshake");
            let run = run_party_a(&mut sess, &fed_a, &tc_a, &train_a, &test_a).expect("party A");
            run.bytes_sent
        })
        .expect("spawn guest");

    let ep = Endpoint::tcp_accept(&listener).expect("accept");
    let mut sess =
        Session::handshake(ep, cfg.clone(), Role::B, party_seed(Role::B, SEED)).expect("host");
    let run_b =
        run_party_b(&mut sess, &fed, &tc, &train_v.party_b, &test_v.party_b).expect("party B");
    let bytes_a = guest.join().expect("guest thread");
    (run_b, bytes_a)
}

/// The in-process reference with identical data, seed and config.
fn run_in_process(cfg: &FedConfig, rows: usize) -> blindfl::train::FedOutcome {
    let ds = dataset_spec("a9a").scaled(rows, 1);
    let (train, test) = generate(&ds, 5);
    let train_v = vsplit(&train);
    let test_v = vsplit(&test);
    train_federated(
        &FedSpec::Glm { out: 1 },
        cfg,
        &train_cfg(),
        train_v.party_a.clone(),
        train_v.party_b.clone(),
        test_v.party_a.clone(),
        test_v.party_b.clone(),
        SEED,
    )
}

fn assert_tcp_matches_in_process(cfg: FedConfig, rows: usize) {
    let reference = run_in_process(&cfg, rows);
    let (tcp_b, tcp_bytes_a) = run_over_tcp(&cfg, rows);

    // Loss curves match (±1e-6 per the acceptance criterion; the runs
    // are deterministic so they should in fact be identical).
    assert_eq!(tcp_b.losses.len(), reference.report.losses.len());
    for (tcp, inproc) in tcp_b.losses.iter().zip(&reference.report.losses) {
        assert!(
            (tcp - inproc).abs() <= 1e-6,
            "loss diverged: tcp {tcp} vs in-process {inproc}"
        );
    }
    let (lt, lr) = (
        *tcp_b.losses.last().unwrap(),
        *reference.report.losses.last().unwrap(),
    );
    assert!((lt - lr).abs() <= 1e-6, "final loss {lt} vs {lr}");
    assert!(
        (tcp_b.test_metric - reference.report.test_metric).abs() <= 1e-6,
        "metric {} vs {}",
        tcp_b.test_metric,
        reference.report.test_metric
    );

    // One-epoch traffic parity, exact, in both directions.
    assert_eq!(
        tcp_b.bytes_sent, reference.report.bytes_b_to_a,
        "B→A bytes must match the in-process transport exactly"
    );
    assert_eq!(
        tcp_bytes_a, reference.report.bytes_a_to_b,
        "A→B bytes must match the in-process transport exactly"
    );
    assert!(tcp_bytes_a > 0 && tcp_b.bytes_sent > 0);
}

#[test]
fn plain_backend_federated_lr_over_tcp_matches_in_process() {
    assert_tcp_matches_in_process(FedConfig::plain(), 80);
}

#[test]
fn paillier_backend_federated_lr_over_tcp_matches_in_process() {
    assert_tcp_matches_in_process(FedConfig::paillier_test(), 48);
}

#[test]
fn malformed_peer_surfaces_error_not_panic() {
    // A party loop facing a peer that speaks garbage must get a typed
    // error (and can drop the connection), never a crash.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let vandal = std::thread::spawn(move || {
        use std::io::Write;
        let mut s = std::net::TcpStream::connect(addr).unwrap();
        s.write_all(b"this is not a blindfl frame").unwrap();
    });
    let ep = Endpoint::tcp_accept(&listener).unwrap();
    let err = Session::handshake(ep, FedConfig::plain(), Role::B, party_seed(Role::B, 1))
        .err()
        .expect("handshake against a garbage peer must fail");
    let msg = format!("{err}");
    assert!(msg.contains("wire decode error"), "unexpected error: {msg}");
    vandal.join().unwrap();
}

#[test]
fn he2ss_reply_with_the_wrong_element_count_is_a_typed_error() {
    // A peer that shakes hands and initialises the layer correctly, then
    // answers the forward pass's HE2SS step with one value too many —
    // repacked, the shape a packed session's replies travel in. The
    // honest party must come back with a typed error, not panic in the
    // decoder or in `Dense::add`, and must not wait for more.
    use bf_mpc::{Msg, TransportError};
    use bf_paillier::{ObfMode, Obfuscator};
    use bf_tensor::{Dense, Features};
    use blindfl::source::MatMulSource;
    use std::time::Duration;

    const ROWS: usize = 6;
    let cfg = FedConfig::paillier_test();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let cfg_a = cfg.clone();
    let vandal = std::thread::spawn(move || {
        let ep = Endpoint::tcp_connect(addr).unwrap();
        let mut sess = Session::handshake(ep, cfg_a, Role::A, party_seed(Role::A, SEED)).unwrap();
        let _layer = MatMulSource::init(&mut sess, 3, 1).unwrap();
        let obf = Obfuscator::new(&sess.peer_pk, ObfMode::Pool(4), 1);
        let bogus = sess.peer_pk.encrypt(&Dense::zeros(ROWS + 1, 1), &obf);
        let bogus = sess.peer_pk.repack(bogus);
        assert_eq!(bogus.shape(), (1, ROWS + 1));
        sess.ep.send(Msg::Ct(bogus)).unwrap();
        // Take the host's own reply, so its send cannot be what fails.
        let _ = sess.ep.recv();
    });

    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let host = std::thread::spawn(move || {
        let ep = Endpoint::tcp_accept(&listener).unwrap();
        let mut sess = Session::handshake(ep, cfg, Role::B, party_seed(Role::B, SEED)).unwrap();
        let mut layer = MatMulSource::init(&mut sess, 4, 1).unwrap();
        let x = Features::Dense(Dense::zeros(ROWS, 4));
        let _ = done_tx.send(layer.forward(&mut sess, &x, false).map(drop));
    });
    let verdict = done_rx
        .recv_timeout(Duration::from_secs(30))
        .expect("the host must answer a malformed reply, not hang or panic");
    let err = verdict.expect_err("a 7-value reply to a 6-row batch must be refused");
    assert!(
        matches!(err, TransportError::Wire(_)) && err.to_string().contains("expected 6×1"),
        "unexpected error: {err}"
    );
    host.join().unwrap();
    vandal.join().unwrap();
}
