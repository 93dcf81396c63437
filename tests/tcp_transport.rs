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
        tcp_b.bytes_sent_per_link[0], reference.report.bytes_b_to_a,
        "B→A bytes must match the in-process transport exactly"
    );
    assert_eq!(
        tcp_bytes_a, reference.report.bytes_a_to_b,
        "A→B bytes must match the in-process transport exactly"
    );
    assert!(tcp_bytes_a > 0 && tcp_b.bytes_sent_per_link[0] > 0);
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

/// What an honest host makes of a peer that shakes hands and
/// initialises the layer correctly, then answers the forward pass's
/// HE2SS step (a 6-row batch, one output column) with `reply`. The host
/// must come back with an error, not panic in the decoder, in `decrypt`
/// or in `Dense::add`, and must not wait for more.
fn host_verdict_on_he2ss_reply(
    reply: impl FnOnce(&Session) -> bf_paillier::CtMat + Send + 'static,
) -> bf_mpc::TransportError {
    use bf_mpc::Msg;
    use bf_tensor::{Dense, Features};
    use blindfl::source::MatMulSource;
    use std::time::Duration;

    let cfg = FedConfig::paillier_test();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let cfg_a = cfg.clone();
    let vandal = std::thread::spawn(move || {
        let ep = Endpoint::tcp_connect(addr).unwrap();
        let mut sess = Session::handshake(ep, cfg_a, Role::A, party_seed(Role::A, SEED)).unwrap();
        let _layer = MatMulSource::init(&mut sess, 3, 1).unwrap();
        sess.ep.send(Msg::Ct(reply(&sess))).unwrap();
        // Take the host's own reply, so its send cannot be what fails.
        let _ = sess.ep.recv();
    });

    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let host = std::thread::spawn(move || {
        let ep = Endpoint::tcp_accept(&listener).unwrap();
        let mut sess = Session::handshake(ep, cfg, Role::B, party_seed(Role::B, SEED)).unwrap();
        let mut layer = MatMulSource::init(&mut sess, 4, 1).unwrap();
        let x = Features::Dense(Dense::zeros(HE2SS_ROWS, 4));
        let _ = done_tx.send(layer.forward(&mut sess, &x, false).map(drop));
    });
    let verdict = done_rx
        .recv_timeout(Duration::from_secs(30))
        .expect("the host must answer a malformed reply, not hang or panic");
    host.join().unwrap();
    vandal.join().unwrap();
    verdict.expect_err("the reply must be refused")
}

const HE2SS_ROWS: usize = 6;

#[test]
fn he2ss_reply_with_the_wrong_element_count_is_a_typed_error() {
    // One value too many — repacked, the shape a packed session's
    // replies travel in.
    use bf_paillier::{ObfMode, Obfuscator};
    let err = host_verdict_on_he2ss_reply(|sess| {
        let obf = Obfuscator::new(&sess.peer_pk, ObfMode::Pool(4), 1);
        let bogus = sess
            .peer_pk
            .encrypt(&bf_tensor::Dense::zeros(HE2SS_ROWS + 1, 1), &obf);
        let bogus = sess.peer_pk.repack(bogus);
        assert_eq!(bogus.shape(), (1, HE2SS_ROWS + 1));
        bogus
    });
    assert!(
        matches!(err, bf_mpc::TransportError::Wire(_)) && err.to_string().contains("expected 6×1"),
        "unexpected error: {err}"
    );
}

#[test]
fn he2ss_reply_that_is_no_body_under_the_hosts_key_is_a_typed_error() {
    // Six values every time; what is wrong is the body. The test
    // session's keys are 256-bit at 24 fractional bits: 8-limb
    // ciphertexts, 2 slots of 88 bits.
    use bf_mpc::wire::WireError;
    use bf_paillier::{import_ctmat, keys::plain_keys, ObfMode, Obfuscator};

    /// The bytes of a `1 × 6` tensor of zeroed `k`-limb ciphertexts at
    /// scale 2: a scalar body, or one packed segment claiming
    /// `(slot_bits, slots)`.
    fn body(k: u64, packed: Option<(u64, u64)>) -> Vec<u8> {
        let cols = HE2SS_ROWS as u64;
        let mut bytes = [1u64.to_le_bytes(), cols.to_le_bytes()].concat();
        bytes.extend_from_slice(&[2, 1 + packed.is_some() as u8]);
        bytes.extend_from_slice(&k.to_le_bytes());
        let mut cts = cols;
        if let Some((slot_bits, slots)) = packed {
            for field in [slot_bits, slots, cols] {
                bytes.extend_from_slice(&field.to_le_bytes());
            }
            cts = cols.div_ceil(slots);
        }
        bytes.resize(bytes.len() + (cts * k * 8) as usize, 0);
        bytes
    }
    // The honest geometry imports, so each refusal below is the key
    // owner's, not the codec's.
    for honest in [body(8, None), body(8, Some((88, 2)))] {
        import_ctmat(&honest).unwrap();
    }
    let (plain_pk, _) = plain_keys(24);
    let plain_obf = Obfuscator::new(&plain_pk, ObfMode::Pool(1), 1);
    let replies = [
        (
            "a Plain body",
            plain_pk.encrypt(&bf_tensor::Dense::zeros(HE2SS_ROWS, 1), &plain_obf),
        ),
        ("k = 1", import_ctmat(&body(1, None)).unwrap()),
        (
            "three slots where the key holds two",
            import_ctmat(&body(8, Some((88, 3)))).unwrap(),
        ),
        (
            "104-bit slots under an 88-bit layout",
            import_ctmat(&body(8, Some((104, 2)))).unwrap(),
        ),
    ];
    for (what, reply) in replies {
        let err = host_verdict_on_he2ss_reply(move |_| reply);
        assert!(
            matches!(&err, bf_mpc::TransportError::Wire(WireError::Malformed(_))),
            "{what}: {err}"
        );
    }
}
