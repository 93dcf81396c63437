//! The multi-client serving gateway end to end: **train → persist →
//! gateway** with a replica pool, a pipelined client fleet, a client
//! that vanishes mid-stream, and the replay-parity check (see
//! `docs/SERVING.md` §gateway).
//!
//! ```text
//! cargo run --release -p blindfl --example gateway_serving
//! ```
//!
//! The gateway is Party B's front door: a nonblocking TCP acceptor +
//! event loop that multiplexes every client connection onto a pool of
//! serving replicas — each replica a full serving session (own guest
//! link, own seed, own model instance) behind a sharded micro-batch
//! queue. Replies are strictly FIFO per connection; each reply is
//! either the logits row or a typed reject code. The example:
//!
//! 1. trains a federated LR and persists both halves
//!    (`blindfl::persist` — the gateway path is always
//!    train → persist → serve),
//! 2. stands up a 2-replica gateway over in-process guest links and a
//!    TCP front door,
//! 3. drives it with 3 pipelined clients plus 1 churn client that
//!    submits and disconnects without reading a reply,
//! 4. replays every replica's recorded batch partitions
//!    (`ServeReport::batch_rows`) through the direct `predict_batch`
//!    forward and asserts every delivered reply is **bit-identical**.

use std::collections::HashMap;
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use bf_datagen::{generate, spec, vsplit};
use blindfl::config::FedConfig;
use blindfl::gateway::{
    gateway_replica_seed, run_gateway, GatewayClient, GatewayConfig, GatewayReplica,
};
use blindfl::models::FedSpec;
use blindfl::persist::{export_party_a, export_party_b, import_party_a, import_party_b};
use blindfl::serve::serve_party_a;
use blindfl::session::{party_seed, run_pair, Role, Session};
use blindfl::train::{train_federated, FedTrainConfig};

const TRAIN_SEED: u64 = 29;
const SERVE_SEED: u64 = 31;
const REPLICAS: usize = 2;
const CLIENTS: usize = 3;

fn main() {
    let cfg = FedConfig::plain();

    // 1. Train → persist.
    println!("[1/4] training + persisting the federated LR...");
    let ds = spec("a9a").scaled(100, 1);
    let (train, test) = generate(&ds, 11);
    let train_v = vsplit(&train);
    let test_v = vsplit(&test);
    let tc = FedTrainConfig {
        base: bf_ml::TrainConfig {
            epochs: 1,
            batch_size: 16,
            ..Default::default()
        },
        snapshot_u_a: false,
        ..Default::default()
    };
    let (guest, host) = train_federated(
        &FedSpec::Glm { out: 1 },
        &cfg,
        &tc,
        train_v.party_a,
        train_v.party_b,
        test_v.party_a.clone(),
        test_v.party_b.clone(),
        TRAIN_SEED,
    );
    let bytes_a = export_party_a(&guest.model);
    let bytes_b = export_party_b(&host.model);
    let (store_a, store_b) = (test_v.party_a, test_v.party_b);
    let n = store_b.rows() as u64;
    println!(
        "      AUC {:.3}; A {} bytes, B {} bytes; {n}-row feature store",
        host.test_metric,
        bytes_a.len(),
        bytes_b.len()
    );

    // Row plans: globally distinct rows so row → bits is
    // single-valued and replay parity can match by row alone. The
    // churn client takes the tail quarter.
    let split = n * 3 / 4;
    let fleet_plans: Vec<Vec<u64>> = (0..CLIENTS as u64)
        .map(|c| (c..split).step_by(CLIENTS).collect())
        .collect();
    let churn_plan: Vec<u64> = (split..n).collect();

    // 2 + 3. Gateway over a replica pool, driven by the fleet.
    println!("[2/4] standing up a {REPLICAS}-replica gateway...");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind front door");
    let addr = listener.local_addr().expect("front-door addr");
    let stop = AtomicBool::new(false);
    let (report, logs) = std::thread::scope(|s| {
        let mut replicas = Vec::new();
        for r in 0..REPLICAS {
            let (ep_a, ep_b) = bf_mpc::channel_pair();
            let seed = gateway_replica_seed(SERVE_SEED, r);
            let cfg_a = cfg.clone();
            let bytes_a = bytes_a.clone();
            let store_a = store_a.clone();
            std::thread::Builder::new()
                .name(format!("gw-guest-{r}"))
                .stack_size(16 << 20)
                .spawn_scoped(s, move || {
                    let mut sess =
                        Session::handshake(ep_a, cfg_a, Role::A, party_seed(Role::A, seed))
                            .expect("guest handshake");
                    let mut model = import_party_a(&bytes_a).expect("guest model");
                    serve_party_a(&mut sess, &mut model, &store_a).expect("guest serve loop");
                })
                .expect("spawn guest");
            let sess = Session::handshake(ep_b, cfg.clone(), Role::B, party_seed(Role::B, seed))
                .expect("host handshake");
            let model = import_party_b(&bytes_b).expect("host model");
            replicas.push(GatewayReplica::TwoParty { sess, model });
        }
        let (stop_ref, store_ref) = (&stop, &store_b);
        let gw = std::thread::Builder::new()
            .name("gateway".into())
            .stack_size(16 << 20)
            .spawn_scoped(s, move || {
                run_gateway(
                    listener,
                    replicas,
                    store_ref,
                    &GatewayConfig {
                        max_batch: 8,
                        ..GatewayConfig::default()
                    },
                    stop_ref,
                )
                .expect("gateway")
            })
            .expect("spawn gateway");
        println!("[3/4] driving {CLIENTS} pipelined clients + 1 churn client at {addr}...");
        // Churn client: submits its whole plan, then vanishes without
        // reading a single reply. The gateway must not stall and the
        // other clients' replies must be unaffected.
        let churn = s.spawn(move || {
            let mut client =
                GatewayClient::connect(addr, Duration::from_secs(10)).expect("churn connect");
            for &row in &churn_plan {
                client.submit(row).expect("churn submit");
            }
            std::thread::sleep(Duration::from_millis(2));
            drop(client);
        });
        let fleet: Vec<_> = fleet_plans
            .into_iter()
            .map(|plan| {
                s.spawn(move || {
                    let mut client =
                        GatewayClient::connect(addr, Duration::from_secs(10)).expect("connect");
                    for &row in &plan {
                        client.submit(row).expect("submit");
                    }
                    let mut log: Vec<(u64, Vec<u64>)> = Vec::new();
                    while client.in_flight() > 0 {
                        let (row, reply) = client.recv().expect("recv");
                        let logits = reply.expect("reply was a rejection");
                        log.push((row, logits.iter().map(|v| v.to_bits()).collect()));
                    }
                    log
                })
            })
            .collect();
        let logs: Vec<_> = fleet.into_iter().map(|h| h.join().unwrap()).collect();
        churn.join().unwrap();
        stop.store(true, Ordering::Relaxed);
        (gw.join().expect("gateway thread"), logs)
    });
    println!(
        "      answered {} / orphaned {} / rejected {}; peak in-flight {}; \
         {:.0} req/s sustained, p99 {:.1} ms",
        report.answered,
        report.orphaned,
        report.rejected,
        report.peak_in_flight,
        report.sustained_qps(),
        report.p99_latency_secs() * 1e3,
    );

    // 4. Parity by replay: re-run every replica's exact partitions
    // directly and compare bits.
    println!("[4/4] replaying recorded batch partitions for bit-parity...");
    let mut replayed: HashMap<u64, Vec<u64>> = HashMap::new();
    for (r, rep) in report.replicas.iter().enumerate() {
        let parts: Vec<Vec<usize>> = rep
            .batch_rows
            .iter()
            .map(|p| p.iter().map(|&x| x as usize).collect())
            .collect();
        let bytes_a = bytes_a.clone();
        let store_a = store_a.clone();
        let parts_a = parts.clone();
        let (bytes_b, store_b) = (bytes_b.clone(), store_b.clone());
        let (_, map) = run_pair(
            &cfg,
            gateway_replica_seed(SERVE_SEED, r),
            move |mut sess| {
                let mut model = import_party_a(&bytes_a).expect("replay guest model");
                for p in &parts_a {
                    model
                        .predict_batch(&mut sess, &store_a.select(p))
                        .expect("replay guest forward");
                }
            },
            move |mut sess| {
                let mut model = import_party_b(&bytes_b).expect("replay host model");
                let mut map = HashMap::new();
                for p in &parts {
                    let logits = model
                        .predict_batch(&mut sess, &store_b.select(p))
                        .expect("replay host forward");
                    for (k, &row) in p.iter().enumerate() {
                        let bits: Vec<u64> = logits.row(k).iter().map(|v| v.to_bits()).collect();
                        map.insert(row as u64, bits);
                    }
                }
                map
            },
        );
        replayed.extend(map);
    }
    let mut checked = 0usize;
    for log in &logs {
        for (row, bits) in log {
            assert_eq!(
                bits,
                replayed.get(row).expect("row absent from the replay"),
                "row {row}: gateway bits diverged from the direct forward"
            );
            checked += 1;
        }
    }
    let fleet_total: u64 = (0..CLIENTS as u64)
        .map(|c| (split - c).div_ceil(CLIENTS as u64))
        .sum();
    assert_eq!(checked as u64, fleet_total, "every fleet reply delivered");
    assert_eq!(report.requests(), report.answered + report.orphaned);
    println!(
        "      {checked} replies replayed bit-identical; \
         requests == answered + orphaned: ok"
    );
    println!("\ngateway_serving: OK");
}
