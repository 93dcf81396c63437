//! The full model life cycle as two OS processes: **train → persist →
//! serve** over localhost TCP (see `docs/SERVING.md`).
//!
//! ```text
//! cargo run --release -p blindfl --example tcp_serving
//! ```
//!
//! With no arguments this binary is the *orchestrator*: it
//!
//! 1. trains a federated LR in process and **persists** both model
//!    halves through the `blindfl::persist` byte format (Party A's
//!    blob goes to a file, exactly what a guest deployment would
//!    ship to its serving node),
//! 2. runs the in-process serve reference: the micro-batching queue
//!    with every request pre-enqueued, so the coalesced batches are
//!    deterministic,
//! 3. re-launches itself as a child process that plays the guest
//!    serving node (loads the model file, connects back, runs
//!    `serve_party_a`), serves the same requests over TCP, and
//!    asserts the answers are **bit-identical** with **byte-identical
//!    B→A traffic** — the serving equivalence contract,
//! 4. serves a second TCP session under concurrent client threads and
//!    reports throughput, latency and batch shape.
//!
//! The child invocation is `--party a --addr <host:port> --model
//! <path>`; point it at a remote machine to serve across two real
//! hosts (both sides must use the same dataset constants and seed
//! below).

use std::net::TcpListener;
use std::process::Command;

use bf_datagen::{generate, spec, vsplit, VflData};
use bf_mpc::Endpoint;
use blindfl::config::FedConfig;
use blindfl::models::FedSpec;
use blindfl::persist::{export_party_a, export_party_b, import_party_a, import_party_b};
use blindfl::serve::{self, serve_party_a, serve_party_b, ServeConfig, ServeReport};
use blindfl::session::{party_seed, Role, Session};
use blindfl::train::{train_federated, FedTrainConfig};

/// Shared run constants — every process must agree on these (the
/// serve protocol exchanges row indices, never features or configs).
const TRAIN_SEED: u64 = 29;
const SERVE_SEED: u64 = 31;
const DATA_SEED: u64 = 11;
const BATCH: usize = 8;

fn fed_config() -> FedConfig {
    FedConfig::plain()
}

fn datasets() -> (VflData, VflData) {
    let ds = spec("a9a").scaled(200, 1);
    let (train, test) = generate(&ds, DATA_SEED);
    (vsplit(&train), vsplit(&test))
}

/// Child process: the guest serving node. Loads the persisted Party A
/// model, connects to the host, serves until shutdown.
fn run_guest(addr: &str, model_path: &str) {
    let (_, test_v) = datasets();
    let bytes = std::fs::read(model_path).expect("read persisted model");
    let mut model = import_party_a(&bytes).expect("import persisted model");
    let ep = Endpoint::tcp_connect_retry(addr, std::time::Duration::from_secs(10))
        .expect("connect to host");
    let mut sess = Session::handshake(ep, fed_config(), Role::A, party_seed(Role::A, SERVE_SEED))
        .expect("guest handshake");
    let report = serve_party_a(&mut sess, &mut model, &test_v.party_a).expect("guest serve loop");
    println!(
        "[guest] served {} rows in {} batches; sent {} bytes A→B",
        report.rows, report.batches, report.bytes_sent
    );
}

/// Serve `rows` pre-enqueued requests through the micro-batching queue
/// over the given endpoint; returns (per-row logit bits, report).
fn serve_preenqueued(
    ep: Endpoint,
    model_bytes: &[u8],
    store: &bf_ml::Dataset,
    n: usize,
) -> (Vec<u64>, ServeReport) {
    let mut sess = Session::handshake(ep, fed_config(), Role::B, party_seed(Role::B, SERVE_SEED))
        .expect("host handshake");
    let mut model = import_party_b(model_bytes).expect("import host model");
    let (client, queue) = serve::queue(n);
    let pending: Vec<_> = (0..n).map(|r| client.submit(r).expect("submit")).collect();
    drop(client);
    let report = serve_party_b(
        &mut sess,
        &mut model,
        store,
        &ServeConfig { max_batch: BATCH },
        queue,
    )
    .expect("host serve loop");
    let bits = pending
        .into_iter()
        .flat_map(|p| p.wait().expect("prediction").logits)
        .map(f64::to_bits)
        .collect();
    (bits, report)
}

/// Parent process: train + persist, in-process serve reference, then
/// the two-process TCP serve runs.
fn orchestrate() {
    let (train_v, test_v) = datasets();
    let n = test_v.party_b.rows();

    println!("== train + persist ==");
    let tc = FedTrainConfig {
        base: bf_ml::TrainConfig {
            epochs: 2,
            batch_size: 64,
            ..Default::default()
        },
        snapshot_u_a: false,
        ..Default::default()
    };
    let (guest, host) = train_federated(
        &FedSpec::Glm { out: 1 },
        &fed_config(),
        &tc,
        train_v.party_a.clone(),
        train_v.party_b.clone(),
        test_v.party_a.clone(),
        test_v.party_b.clone(),
        TRAIN_SEED,
    );
    let model_a = export_party_a(&guest.model);
    let model_b = export_party_b(&host.model);
    println!(
        "trained AUC = {:.3}; persisted A half: {} bytes, B half: {} bytes",
        host.test_metric,
        model_a.len(),
        model_b.len()
    );
    let model_path =
        std::env::temp_dir().join(format!("blindfl-serve-a-{}.bfmd", std::process::id()));
    std::fs::write(&model_path, &model_a).expect("write model file");

    println!("== in-process serve reference ==");
    let (ref_bits, ref_report) = {
        let (ep_a, ep_b) = bf_mpc::channel_pair();
        let cfg = fed_config();
        let store_a = test_v.party_a.clone();
        let bytes = model_a.clone();
        let guest = std::thread::Builder::new()
            .name("ref-guest".into())
            .stack_size(16 << 20)
            .spawn(move || {
                let mut sess =
                    Session::handshake(ep_a, cfg, Role::A, party_seed(Role::A, SERVE_SEED))
                        .expect("ref guest handshake");
                let mut model = import_party_a(&bytes).expect("ref guest model");
                serve_party_a(&mut sess, &mut model, &store_a).expect("ref guest serve")
            })
            .expect("spawn ref guest");
        let out = serve_preenqueued(ep_b, &model_b, &test_v.party_b, n);
        guest.join().expect("ref guest thread");
        out
    };
    println!(
        "reference: {} requests in {} batches, {} bytes B→A",
        ref_report.requests, ref_report.batches, ref_report.bytes_sent
    );

    println!("== two-process serve (TCP) ==");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind localhost");
    let addr = listener.local_addr().unwrap().to_string();
    let exe = std::env::current_exe().expect("current_exe");
    let spawn_guest = || {
        Command::new(&exe)
            .args(["--party", "a", "--addr", &addr])
            .arg("--model")
            .arg(&model_path)
            .spawn()
            .expect("spawn guest serving process")
    };

    let mut child = spawn_guest();
    let ep = Endpoint::tcp_accept(&listener).expect("accept guest");
    let (tcp_bits, tcp_report) = serve_preenqueued(ep, &model_b, &test_v.party_b, n);
    assert!(child.wait().expect("guest exit").success(), "guest failed");

    // The serving equivalence contract: moving the guest to its own
    // process over sockets changes nothing observable.
    assert_eq!(tcp_bits, ref_bits, "TCP-served logits diverged");
    assert_eq!(
        tcp_report.bytes_sent, ref_report.bytes_sent,
        "B→A serve traffic must match the in-process reference exactly"
    );

    println!("== concurrent clients over TCP ==");
    let mut child = spawn_guest();
    let ep = Endpoint::tcp_accept(&listener).expect("accept guest");
    let mut sess = Session::handshake(ep, fed_config(), Role::B, party_seed(Role::B, SERVE_SEED))
        .expect("host handshake");
    let mut model = import_party_b(&model_b).expect("import host model");
    let (client, queue) = serve::queue(n);
    let clients: Vec<_> = (0..4)
        .map(|c| {
            let client = client.clone();
            std::thread::spawn(move || {
                for k in 0..n / 4 {
                    let pred = client.predict((c * (n / 4) + k) % n).expect("prediction");
                    assert_eq!(pred.logits.len(), 1);
                }
            })
        })
        .collect();
    drop(client);
    let live = serve_party_b(
        &mut sess,
        &mut model,
        &test_v.party_b,
        &ServeConfig { max_batch: BATCH },
        queue,
    )
    .expect("host serve loop");
    for c in clients {
        c.join().expect("client thread");
    }
    assert!(child.wait().expect("guest exit").success(), "guest failed");
    println!(
        "live session: {} requests in {} batches (max batch {}), mean latency {:.2} ms",
        live.requests,
        live.batches,
        live.max_batch(),
        live.mean_latency_secs() * 1e3
    );

    let _ = std::fs::remove_file(&model_path);
    println!(
        "predictions served: {} over TCP (bit-exact parity with the in-process serve reference)",
        tcp_report.requests
    );
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
            let model = flag("--model").expect("--party a requires --model path");
            run_guest(&addr, &model);
        }
        Some(other) => panic!("unknown --party {other} (only 'a' is launched as a child)"),
        None => orchestrate(),
    }
}
