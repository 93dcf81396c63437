//! Pipeline-speedup experiment: the pipelined mini-batch engine vs the
//! lock-step loop on the Paillier LR workload over a simulated WAN
//! (`NetworkProfile::wan_100mbps` — 100 Mbps, 20 ms one-way).
//!
//! The paper's GMP system hides ciphertext-transfer time behind crypto
//! compute (§7); this binary measures how much of that our engine
//! recovers: same protocol, same bytes, same loss curve (asserted),
//! epoch wall-clock compared. Also prints Party B's per-stage time
//! attribution for the pipelined run.
//!
//! ```text
//! cargo run --release -p bf-bench --bin pipeline
//! ```
//!
//! Env knobs: `PIPELINE_ROWS` (default 192), `PIPELINE_EPOCHS`
//! (default 2).

use bf_datagen::{generate, spec, vsplit, VflData};
use bf_mpc::transport::{channel_pair_with_network, NetworkProfile};
use bf_util::Table;
use blindfl::config::FedConfig;
use blindfl::engine::TrainMode;
use blindfl::models::FedSpec;
use blindfl::session::{party_seed, Role, Session};
use blindfl::train::{run_party_a, run_party_b, FedTrainConfig, PartyBRun};

const SEED: u64 = 0xB11D;
const BS: usize = 32;

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

fn datasets(rows: usize) -> (VflData, VflData) {
    let ds = spec("a9a").scaled(rows, 1);
    let (train, test) = generate(&ds, 0xDA7A);
    (vsplit(&train), vsplit(&test))
}

struct RunOut {
    b: PartyBRun,
    bytes_a: u64,
    train_secs: f64,
}

/// One federated-LR run over an in-process pair with the WAN profile.
fn run(cfg: &FedConfig, mode: TrainMode, rows: usize, epochs: usize) -> RunOut {
    let (train_v, test_v) = datasets(rows);
    let (ep_a, ep_b) = channel_pair_with_network(NetworkProfile::wan_100mbps());
    let tc = FedTrainConfig {
        base: bf_ml::TrainConfig {
            epochs,
            batch_size: BS,
            ..Default::default()
        },
        snapshot_u_a: false,
        mode,
        ..Default::default()
    };
    let fed = FedSpec::Glm { out: 1 };

    let cfg_a = cfg.clone();
    let tc_a = tc.clone();
    let fed_a = fed.clone();
    let (train_a, test_a) = (train_v.party_a.clone(), test_v.party_a.clone());
    let guest = std::thread::Builder::new()
        .name("pipeline-party-a".into())
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
        Session::handshake(ep_b, cfg.clone(), Role::B, party_seed(Role::B, SEED)).expect("B");
    let b = run_party_b(&mut sess, &fed, &tc, &train_v.party_b, &test_v.party_b).expect("party B");
    let bytes_a = guest.join().expect("party A thread");
    let train_secs = b.train_secs;
    RunOut {
        b,
        bytes_a,
        train_secs,
    }
}

fn main() {
    let rows = env_usize("PIPELINE_ROWS", 192);
    let epochs = env_usize("PIPELINE_EPOCHS", 2);
    let cfg = FedConfig::paillier_test();
    println!(
        "Pipeline speedup: Paillier LR (a9a×{rows}, bs={BS}, {epochs} epochs) over wan_100mbps\n"
    );

    eprintln!("[pipeline] sync run...");
    let sync = run(&cfg, TrainMode::Sync, rows, epochs);
    eprintln!("[pipeline] pipelined run...");
    let pipe = run(&cfg, TrainMode::pipelined(), rows, epochs);

    // Determinism contract: pipelining may only move wall-clock.
    assert_eq!(
        sync.b.losses, pipe.b.losses,
        "loss curves must be bit-identical across modes"
    );
    assert_eq!(sync.bytes_a, pipe.bytes_a, "A→B bytes diverged");
    assert_eq!(
        sync.b.bytes_sent_per_link, pipe.b.bytes_sent_per_link,
        "B→A bytes diverged"
    );

    let speedup = sync.train_secs / pipe.train_secs;
    let mut t = Table::new(vec!["mode", "epoch secs", "AUC", "A→B bytes", "B→A bytes"]);
    for (name, r) in [("sync", &sync), ("pipelined", &pipe)] {
        t.row(vec![
            name.to_string(),
            format!("{:.2}", r.train_secs / epochs as f64),
            format!("{:.3}", r.b.test_metric),
            format!("{}", r.bytes_a),
            format!("{}", r.b.bytes_sent_per_link[0]),
        ]);
    }
    t.print();

    println!("\nParty B stage attribution (pipelined run):");
    let mut st = Table::new(vec!["stage", "secs"]);
    for (label, secs) in &pipe.b.stage_secs {
        st.row(vec![label.to_string(), format!("{secs:.3}")]);
    }
    st.print();

    println!("\nepoch-time speedup: {speedup:.2}x (pipelined vs sync)");
    if speedup < 1.3 {
        eprintln!("[pipeline] WARNING: speedup below the 1.3x target — is the machine loaded?");
    }
}
