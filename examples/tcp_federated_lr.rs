//! Two-**process** federated logistic regression over localhost TCP —
//! the deployment shape the paper assumes (two enterprises, one
//! network link), downscaled to one machine.
//!
//! ```text
//! cargo run --release -p blindfl --example tcp_federated_lr
//! ```
//!
//! With no arguments this binary is the *orchestrator*: it
//!
//! 1. trains the in-process reference (both parties as threads over a
//!    channel pair),
//! 2. binds a TCP listener, re-launches itself as a child process that
//!    plays the guest (Party A, feature holder) and connects back,
//! 3. plays the host (Party B, label holder) over the accepted socket,
//! 4. verifies the two-process run reproduced the in-process loss
//!    (±1e-6; deterministic seeding makes it exact in practice) and
//!    that the wire traffic matches byte-for-byte.
//!
//! The child invocation is `--party a --addr <host:port>`; point it at
//! a remote machine to run the parties on two real hosts (both sides
//! must use the same dataset constants and seed below).

use std::net::TcpListener;
use std::process::Command;

use bf_datagen::{generate, spec, vsplit, VflData};
use bf_mpc::Endpoint;
use blindfl::config::FedConfig;
use blindfl::models::FedSpec;
use blindfl::session::{party_seed, Role, Session};
use blindfl::train::{run_party_a, run_party_b, train_federated, FedTrainConfig};

/// Shared run constants — every process must agree on these for the
/// runs to be comparable (the protocol exchanges no hyper-parameters).
const SEED: u64 = 17;
const DATA_SEED: u64 = 11;

fn fed_config() -> FedConfig {
    FedConfig::plain()
}

fn train_config() -> FedTrainConfig {
    FedTrainConfig {
        base: bf_ml::TrainConfig {
            epochs: 2,
            batch_size: 64,
            ..Default::default()
        },
        snapshot_u_a: false,
        // Chaos drills: `BF_FAULT=kill@N|drop@N|delay@N:MS` injects a
        // scripted failure into whichever process it is set for
        // (unset ⇒ fault-free; see `bf_mpc::fault`).
        fault: bf_mpc::FaultPlan::from_env(),
        ..Default::default()
    }
}

fn fed_spec() -> FedSpec {
    FedSpec::Glm { out: 1 }
}

/// Both processes regenerate the identical vertical split (datagen is
/// deterministic in its seed — nothing needs to be shipped).
fn datasets() -> (VflData, VflData) {
    let ds = spec("a9a").scaled(200, 1);
    let (train, test) = generate(&ds, DATA_SEED);
    (vsplit(&train), vsplit(&test))
}

/// Child process: Party A (guest) — connects out, holds features only.
fn run_guest(addr: &str) {
    let (train_v, test_v) = datasets();
    let ep = Endpoint::tcp_connect_retry(addr, std::time::Duration::from_secs(10))
        .expect("connect to host");
    let mut sess = Session::handshake(ep, fed_config(), Role::A, party_seed(Role::A, SEED))
        .expect("guest handshake");
    let run = run_party_a(
        &mut sess,
        &fed_spec(),
        &train_config(),
        &train_v.party_a,
        &test_v.party_a,
    )
    .expect("party A run");
    println!("[guest] done; sent {} bytes A→B", run.bytes_sent);
}

/// Parent process: in-process reference, then host Party B over TCP
/// against the spawned guest.
fn orchestrate() {
    let (train_v, test_v) = datasets();

    println!("== in-process reference (channel transport) ==");
    // The reference stays fault-free even under a `BF_FAULT` drill —
    // the env var is process-wide, but the drill targets the party
    // runs below, and the reference must survive to compare against.
    let reference_tc = FedTrainConfig {
        fault: None,
        ..train_config()
    };
    let reference = train_federated(
        &fed_spec(),
        &fed_config(),
        &reference_tc,
        train_v.party_a.clone(),
        train_v.party_b.clone(),
        test_v.party_a.clone(),
        test_v.party_b.clone(),
        SEED,
    );
    let ref_loss = *reference.report.losses.last().unwrap();
    println!(
        "reference final loss = {ref_loss:.6}, AUC = {:.3}",
        reference.report.test_metric
    );

    println!("== two-process run (TCP transport) ==");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind localhost");
    let addr = listener.local_addr().unwrap().to_string();
    let exe = std::env::current_exe().expect("current_exe");
    let mut child = Command::new(exe)
        .args(["--party", "a", "--addr", &addr])
        .spawn()
        .expect("spawn guest process");

    let ep = Endpoint::tcp_accept(&listener).expect("accept guest");
    let mut sess = Session::handshake(ep, fed_config(), Role::B, party_seed(Role::B, SEED))
        .expect("host handshake");
    let run = run_party_b(
        &mut sess,
        &fed_spec(),
        &train_config(),
        &train_v.party_b,
        &test_v.party_b,
    )
    .expect("party B run");
    let status = child.wait().expect("guest exit");
    assert!(status.success(), "guest process failed: {status}");

    let tcp_loss = *run.losses.last().unwrap();
    let bytes_sent = run.bytes_sent_per_link[0];
    println!("[host] sent {bytes_sent} bytes B→A");
    println!("two-process TCP AUC = {:.3}", run.test_metric);

    // The whole point: same protocol, same bytes, same model — only
    // the wire changed.
    assert!(
        (tcp_loss - ref_loss).abs() <= 1e-6,
        "TCP loss {tcp_loss} diverged from in-process loss {ref_loss}"
    );
    assert_eq!(
        bytes_sent, reference.report.bytes_b_to_a,
        "B→A traffic must match the in-process transport exactly"
    );
    println!("traffic parity: B→A {bytes_sent} bytes (exact match with in-process)");
    println!("final loss = {tcp_loss:.6} (matches in-process within 1e-6)");
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let flag = |name: &str| -> Option<String> {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1).cloned())
    };
    match flag("--party").as_deref() {
        Some("a") => {
            let addr = flag("--addr").expect("--party a requires --addr host:port");
            run_guest(&addr);
        }
        Some(other) => panic!("unknown --party {other} (only 'a' is launched as a child)"),
        None => orchestrate(),
    }
}
