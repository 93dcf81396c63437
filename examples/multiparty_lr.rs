//! Multi-**process** multi-guest federated logistic regression (paper
//! Appendix C) over localhost TCP: `M` guest processes (Party A(1..M),
//! feature holders) against one host process (Party B, label holder) —
//! the deployment shape of an M-enterprise VFL job, downscaled to one
//! machine.
//!
//! ```text
//! cargo run --release -p blindfl --example multiparty_lr          # M = 2
//! MULTIPARTY_GUESTS=4 cargo run --release -p blindfl --example multiparty_lr
//! ```
//!
//! With no `--party` argument this binary is the *orchestrator*: it
//!
//! 1. trains the in-process reference (`train_federated_multi`: one
//!    thread per guest over channel pairs),
//! 2. binds a TCP listener and re-launches itself `M` times, each
//!    child playing one guest (`--party a --index i`) that connects
//!    back, opens its link with `join_host` (the wire-protocol `Hello`
//!    frame, then the key handshake) and runs the unmodified
//!    `run_party_a`,
//! 3. accepts the `M` connections *in whatever order they arrive*,
//!    puts them into link order with `accept_guests`, and plays Party B
//!    over the sockets,
//! 4. verifies the multi-process run reproduced the in-process loss
//!    (±1e-6; deterministic seeding makes it exact in practice) and
//!    that the per-link B→A(i) wire traffic matches byte-for-byte.

use std::net::TcpListener;
use std::process::Command;

use bf_datagen::{generate, spec, vsplit_multi, MultiVflData};
use bf_mpc::Endpoint;
use blindfl::config::FedConfig;
use blindfl::models::FedSpec;
use blindfl::multiparty::{accept_guests, join_host};
use blindfl::train::{run_party_a, run_party_b, train_federated_multi, FedTrainConfig};

/// Shared run constants — every process must agree on these for the
/// runs to be comparable (the protocol exchanges no hyper-parameters).
const SEED: u64 = 19;
const DATA_SEED: u64 = 5;

fn guest_count() -> usize {
    std::env::var("MULTIPARTY_GUESTS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(2)
}

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
        ..Default::default()
    }
}

fn fed_spec() -> FedSpec {
    FedSpec::Glm { out: 1 }
}

/// Every process regenerates the identical M-way vertical split
/// (datagen is deterministic in its seed — nothing is shipped).
fn datasets(m: usize) -> (MultiVflData, MultiVflData) {
    let ds = spec("a9a").scaled(200, 1);
    let (train, test) = generate(&ds, DATA_SEED);
    (vsplit_multi(&train, m), vsplit_multi(&test, m))
}

/// Child process: guest `index` — connects out, announces its link
/// slot, holds only its feature slice.
fn run_guest(addr: &str, index: usize, m: usize) {
    let (train_v, test_v) = datasets(m);
    let ep = Endpoint::tcp_connect_retry(addr, std::time::Duration::from_secs(10))
        .expect("connect to host");
    let mut sess = join_host(ep, &fed_config(), index, m, SEED).expect("guest prologue");
    let run = run_party_a(
        &mut sess,
        &fed_spec(),
        &train_config(),
        &train_v.guests[index],
        &test_v.guests[index],
    )
    .expect("guest run");
    println!(
        "[guest {index}] done; sent {} bytes A({index})→B",
        run.bytes_sent
    );
}

/// Parent process: in-process reference, then host Party B over TCP
/// against the spawned guest processes.
fn orchestrate(m: usize) {
    let (train_v, test_v) = datasets(m);

    println!("== in-process reference (channel transport, M = {m} guests) ==");
    let (_, reference) = train_federated_multi(
        &fed_spec(),
        &fed_config(),
        &train_config(),
        train_v.guests.clone(),
        train_v.party_b.clone(),
        test_v.guests.clone(),
        test_v.party_b.clone(),
        SEED,
    );
    let ref_loss = *reference.losses.last().unwrap();
    println!(
        "reference final loss = {ref_loss:.6}, AUC = {:.3}",
        reference.test_metric
    );

    println!("== {m}-guest multi-process run (TCP transport) ==");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind localhost");
    let addr = listener.local_addr().unwrap().to_string();
    let exe = std::env::current_exe().expect("current_exe");
    let mut children: Vec<_> = (0..m)
        .map(|i| {
            Command::new(&exe)
                .args(["--party", "a", "--index", &i.to_string(), "--addr", &addr])
                .env("MULTIPARTY_GUESTS", m.to_string())
                .spawn()
                .expect("spawn guest process")
        })
        .collect();

    // Accept in arrival order; the hellos restore link order.
    let accepted: Vec<Endpoint> = (0..m)
        .map(|_| Endpoint::tcp_accept(&listener).expect("accept guest"))
        .collect();
    let mut sessions = accept_guests(accepted, &fed_config(), SEED).expect("host prologue");
    let run = run_party_b(
        &mut sessions,
        &fed_spec(),
        &train_config(),
        &train_v.party_b,
        &test_v.party_b,
    )
    .expect("party B run");
    for (i, child) in children.iter_mut().enumerate() {
        let status = child.wait().expect("guest exit");
        assert!(status.success(), "guest process {i} failed: {status}");
    }

    let tcp_loss = *run.losses.last().unwrap();
    println!("multi-process TCP AUC = {:.3}", run.test_metric);

    // Same protocol, same bytes, same model on every link — only the
    // wire changed.
    assert!(
        (tcp_loss - ref_loss).abs() <= 1e-6,
        "TCP loss {tcp_loss} diverged from in-process loss {ref_loss}"
    );
    assert_eq!(
        run.bytes_sent_per_link, reference.bytes_sent_per_link,
        "per-link B→A traffic must match the in-process transport exactly"
    );
    for (i, bytes) in run.bytes_sent_per_link.iter().enumerate() {
        println!("traffic parity: B→A({i}) {bytes} bytes (exact match with in-process)");
    }
    println!(
        "multiparty final loss = {tcp_loss:.6} (M={m} guests, matches in-process within 1e-6)"
    );
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let flag = |name: &str| -> Option<String> {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1).cloned())
    };
    let m = guest_count();
    assert!(m >= 1, "MULTIPARTY_GUESTS must be at least 1");
    match flag("--party").as_deref() {
        Some("a") => {
            let addr = flag("--addr").expect("--party a requires --addr host:port");
            let index: usize = flag("--index")
                .expect("--party a requires --index i")
                .parse()
                .expect("--index must be an integer");
            run_guest(&addr, index, m);
        }
        Some(other) => panic!("unknown --party {other} (only 'a' is launched as a child)"),
        None => orchestrate(m),
    }
}
