//! The pipelined mini-batch engine, demonstrated end to end.
//!
//! ```text
//! cargo run --release -p blindfl --example pipelined_lr
//! ```
//!
//! Trains the same federated LR twice over a simulated WAN link
//! (`NetworkProfile::wan_100mbps`): once with [`TrainMode::Sync`]
//! (batches selected on the protocol thread), once with
//! [`TrainMode::Pipelined`] (mini-batch preparation double-buffered on
//! a worker). The link streams in both runs, so the two differ in
//! batch prefetch alone. The engine's contract is asserted here, not
//! just printed:
//!
//! * **bit-identical** per-batch loss curves and test metric,
//! * **exactly equal** A→B and B→A `TrafficStats` byte counts,
//! * the wall-clock ratio is reported as batch prefetch's speedup.

use bf_datagen::{generate, spec, vsplit, VflData};
use bf_mpc::transport::{channel_pair_with_network, NetworkProfile};
use blindfl::config::FedConfig;
use blindfl::engine::TrainMode;
use blindfl::models::FedSpec;
use blindfl::session::{party_seed, Role, Session};
use blindfl::train::{run_party_a, run_party_b, FedTrainConfig, PartyBRun};

const SEED: u64 = 17;
const DATA_SEED: u64 = 5;

fn datasets() -> (VflData, VflData) {
    let ds = spec("a9a").scaled(160, 1);
    let (train, test) = generate(&ds, DATA_SEED);
    (vsplit(&train), vsplit(&test))
}

fn train_config(mode: TrainMode) -> FedTrainConfig {
    FedTrainConfig {
        base: bf_ml::TrainConfig {
            epochs: 2,
            batch_size: 32,
            ..Default::default()
        },
        snapshot_u_a: false,
        mode,
        ..Default::default()
    }
}

/// One run over an in-process pair with the WAN profile attached.
/// Returns Party B's result, Party A's sent bytes, and wall seconds.
fn run(mode: TrainMode) -> (PartyBRun, u64, f64) {
    let (train_v, test_v) = datasets();
    let (ep_a, ep_b) = channel_pair_with_network(NetworkProfile::wan_100mbps());
    let cfg = FedConfig::plain();
    let tc = train_config(mode);
    let fed = FedSpec::Glm { out: 1 };

    let cfg_a = cfg.clone();
    let tc_a = tc.clone();
    let fed_a = fed.clone();
    let (train_a, test_a) = (train_v.party_a.clone(), test_v.party_a.clone());
    let start = std::time::Instant::now();
    let guest = std::thread::Builder::new()
        .name("pipelined-lr-party-a".into())
        .stack_size(16 << 20)
        .spawn(move || {
            let mut sess = Session::handshake(ep_a, cfg_a, Role::A, party_seed(Role::A, SEED))
                .expect("A handshake");
            run_party_a(&mut sess, &fed_a, &tc_a, &train_a, &test_a)
                .expect("party A run")
                .bytes_sent
        })
        .expect("spawn party A");
    let mut sess =
        Session::handshake(ep_b, cfg, Role::B, party_seed(Role::B, SEED)).expect("B handshake");
    let run_b =
        run_party_b(&mut sess, &fed, &tc, &train_v.party_b, &test_v.party_b).expect("party B run");
    let bytes_a = guest.join().expect("party A thread");
    (run_b, bytes_a, start.elapsed().as_secs_f64())
}

fn main() {
    println!("== federated LR over simulated WAN (100 Mbps, 20 ms) ==");
    println!("-- no prefetch (TrainMode::Sync) --");
    let (sync_b, sync_bytes_a, sync_secs) = run(TrainMode::Sync);
    println!(
        "sync: {sync_secs:.2}s wall, AUC = {:.3}",
        sync_b.test_metric
    );

    println!("-- batch prefetch (TrainMode::Pipelined) --");
    let (pipe_b, pipe_bytes_a, pipe_secs) = run(TrainMode::pipelined());
    println!(
        "pipelined: {pipe_secs:.2}s wall, AUC = {:.3}",
        pipe_b.test_metric
    );

    // The determinism contract, asserted.
    assert_eq!(
        sync_b.losses, pipe_b.losses,
        "loss curves must be bit-identical across modes"
    );
    assert_eq!(sync_b.test_metric, pipe_b.test_metric);
    assert_eq!(
        sync_bytes_a, pipe_bytes_a,
        "A→B traffic must match across modes exactly"
    );
    assert_eq!(
        sync_b.bytes_sent_per_link, pipe_b.bytes_sent_per_link,
        "B→A traffic must match across modes exactly"
    );

    println!(
        "traffic parity: A→B {sync_bytes_a} bytes, B→A {} bytes (exact across modes)",
        sync_b.bytes_sent_per_link[0]
    );
    println!(
        "batch prefetch speedup: {:.2}x wall-clock (both runs stream the link)",
        sync_secs / pipe_secs
    );
    let final_loss = sync_b.losses.last().unwrap();
    println!("final loss = {final_loss:.6} (pipelined bit-identical to sync)");
}
