//! Gateway contracts (`docs/SERVING.md` §gateway):
//!
//! 1. **Replayable bit-parity** — every prediction a gateway delivers
//!    is bit-identical to the direct `predict_batch` forward under the
//!    same replica seed and batch partition. Each replica records its
//!    exact partitions (`ServeReport::batch_rows`); the tests replay
//!    them on fresh, identically-seeded sessions and compare bits.
//!    Cells: 2-party and `M = 2` multi-guest × Plain and
//!    Paillier/Packed.
//! 2. **Churn safety** — clients that connect, submit, and vanish
//!    (including mid-batch) never stall the gateway or corrupt another
//!    rider's reply; every admitted request is answered, rejected, or
//!    orphaned — none vanish.
//! 3. **Admission control** — with `shed_load` and a saturated pool
//!    the gateway answers `GW_OVERLOADED` instead of queueing without
//!    bound; bad rows are rejected at the front door without touching
//!    a replica.
//!
//! Every request in these tests targets a globally distinct row, so
//! "row → logit bits" is single-valued per run and the replayed bits
//! can be matched to client-observed bits by row alone.
//!
//! Key custody: a persisted model's ciphertext caches only decrypt
//! under the *training* keys, and the serving sessions run under their
//! own seeds, so every fixture persists each party's key pair next to
//! its model blob and every serving or replay session reloads it
//! (`Session::handshake_with_keys`, `docs/SERVING.md` § key custody).
//! The parity cells then also check the served logits against the
//! test-split predictions the training run itself made — the one
//! comparison that notices a gateway and a replay agreeing on garbage.

use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use bf_datagen::{generate, spec, vsplit, vsplit_multi};
use bf_ml::data::Dataset;
use bf_mpc::{channel_pair_with_network, Endpoint, NetworkProfile};
use bf_paillier::{export_public, export_secret, import_public, import_secret};
use bf_tensor::Dense;
use blindfl::config::FedConfig;
use blindfl::gateway::{
    gateway_replica_seed, run_gateway, GatewayClient, GatewayConfig, GatewayReject, GatewayReplica,
    GatewayReport,
};
use blindfl::models::{FedSpec, PartyBModel};
use blindfl::multiparty::{collect_guests, send_hello};
use blindfl::persist::{export_party_a, export_party_b, import_party_a, import_party_b};
use blindfl::serve::serve_party_a;
use blindfl::session::{multi_party_seed, party_seed, run_pair, Role, Session};
use blindfl::train::{run_party_a, run_party_b, FedTrainConfig};

const TRAIN_SEED: u64 = 41;
const SERVE_SEED: u64 = 42;
const CONNECT_TIMEOUT: Duration = Duration::from_secs(10);

fn train_cfg(epochs: usize) -> FedTrainConfig {
    FedTrainConfig {
        base: bf_ml::TrainConfig {
            epochs,
            batch_size: 8,
            ..Default::default()
        },
        snapshot_u_a: false,
        ..Default::default()
    }
}

/// One party's training key pair in persisted form.
struct KeyPair {
    public: String,
    secret: String,
}

impl KeyPair {
    fn of(sess: &Session) -> KeyPair {
        KeyPair {
            public: export_public(&sess.own_pk),
            secret: export_secret(&sess.own_sk),
        }
    }

    /// A fresh session under the reloaded keys; `seed` (already
    /// role-derived) drives only the masks and the obfuscator.
    fn session(&self, ep: Endpoint, cfg: &FedConfig, role: Role, seed: u64) -> Session {
        Session::handshake_with_keys(
            ep,
            cfg.clone(),
            role,
            import_public(&self.public).unwrap(),
            import_secret(&self.secret).unwrap(),
            seed,
        )
        .unwrap()
    }
}

/// A trained two-party model as a deployment holds it: both halves in
/// the persistence format, both key pairs, the stores to serve from,
/// and the logits the training run predicted for those stores.
struct Trained {
    bytes_a: Vec<u8>,
    bytes_b: Vec<u8>,
    keys_a: KeyPair,
    keys_b: KeyPair,
    store_a: Dataset,
    store_b: Dataset,
    trained_logits: Dense,
}

/// Train a two-party LR and export both halves through the
/// persistence format (the gateway path is always
/// train → persist → serve).
fn train_and_export(cfg: &FedConfig, rows: usize) -> Trained {
    let ds = spec("a9a").scaled(rows, 1);
    let (train, test) = generate(&ds, 7);
    let train_v = vsplit(&train);
    let test_v = vsplit(&test);
    let spec = FedSpec::Glm { out: 1 };
    let tc = train_cfg(1);
    let (test_a, test_b) = (test_v.party_a.clone(), test_v.party_b.clone());
    let ((bytes_a, keys_a), (bytes_b, keys_b, trained_logits)) = run_pair(
        cfg,
        TRAIN_SEED,
        {
            let (spec, tc) = (spec.clone(), tc.clone());
            move |mut sess| {
                let run = run_party_a(&mut sess, &spec, &tc, &train_v.party_a, &test_a).unwrap();
                (export_party_a(&run.model), KeyPair::of(&sess))
            }
        },
        |mut sess| {
            let run = run_party_b(&mut sess, &spec, &tc, &train_v.party_b, &test_b).unwrap();
            (
                export_party_b(&run.model),
                KeyPair::of(&sess),
                run.test_logits,
            )
        },
    );
    Trained {
        bytes_a,
        bytes_b,
        keys_a,
        keys_b,
        store_a: test_v.party_a,
        store_b: test_v.party_b,
        trained_logits,
    }
}

/// The assertion the replay cannot make: what clients were served is
/// what the training run predicted for the same rows. Not bit for bit —
/// a serving session draws its own HE2SS masks, and `φ + (v − φ)`
/// rounds with `φ` — but to fixed-point precision, where a cache opened
/// under the wrong key is off by the size of the ring.
fn check_against_training(logs: &[ClientLog], trained_logits: &Dense) {
    for (row, reply) in logs.iter().flatten() {
        let bits = reply.as_ref().expect("reply was a rejection");
        for (j, &b) in bits.iter().enumerate() {
            let (served, trained) = (f64::from_bits(b), trained_logits.get(*row as usize, j));
            assert!(
                (served - trained).abs() < 1e-6,
                "row {row}: served logit {served}, training-time prediction {trained}"
            );
        }
    }
}

/// Stand up a 2-party gateway (replica pool over in-process guest
/// links, TCP front door), run `drive` against it, then drain.
fn two_party_gateway<T: Send>(
    cfg: &FedConfig,
    t: &Trained,
    n_replicas: usize,
    gw_cfg: &GatewayConfig,
    net: Option<NetworkProfile>,
    drive: impl FnOnce(SocketAddr) -> T + Send,
) -> (GatewayReport, T) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let mut replicas = Vec::new();
        for r in 0..n_replicas {
            let (ep_a, ep_b) = match net {
                Some(p) => channel_pair_with_network(p),
                None => bf_mpc::channel_pair(),
            };
            let seed = gateway_replica_seed(SERVE_SEED, r);
            std::thread::Builder::new()
                .name(format!("gw-guest-{r}"))
                .stack_size(16 << 20)
                .spawn_scoped(s, move || {
                    let mut sess = t
                        .keys_a
                        .session(ep_a, cfg, Role::A, party_seed(Role::A, seed));
                    let mut model = import_party_a(&t.bytes_a).unwrap();
                    serve_party_a(&mut sess, &mut model, &t.store_a).unwrap();
                })
                .unwrap();
            let sess = t
                .keys_b
                .session(ep_b, cfg, Role::B, party_seed(Role::B, seed));
            let model = import_party_b(&t.bytes_b).unwrap();
            replicas.push(GatewayReplica::TwoParty { sess, model });
        }
        let store_b = &t.store_b;
        let stop_ref = &stop;
        let gw = std::thread::Builder::new()
            .name("gateway".into())
            .stack_size(16 << 20)
            .spawn_scoped(s, move || {
                run_gateway(listener, replicas, store_b, gw_cfg, stop_ref).unwrap()
            })
            .unwrap();
        let out = drive(addr);
        stop.store(true, Ordering::Relaxed);
        (gw.join().unwrap(), out)
    })
}

/// Replay one replica's recorded batch partitions through the direct
/// forward on fresh sessions with the replica's seed; returns
/// row → logit bits (rows are globally distinct in these tests).
fn replay_two_party(
    cfg: &FedConfig,
    t: &Trained,
    seed: u64,
    partitions: &[Vec<u32>],
) -> HashMap<u64, Vec<u64>> {
    let parts: Vec<Vec<usize>> = partitions
        .iter()
        .map(|p| p.iter().map(|&r| r as usize).collect())
        .collect();
    let (ep_a, ep_b) = bf_mpc::channel_pair();
    std::thread::scope(|s| {
        let parts_a = &parts;
        std::thread::Builder::new()
            .name("replay-guest".into())
            .stack_size(16 << 20)
            .spawn_scoped(s, move || {
                let mut sess = t
                    .keys_a
                    .session(ep_a, cfg, Role::A, party_seed(Role::A, seed));
                let mut model = import_party_a(&t.bytes_a).unwrap();
                for p in parts_a {
                    model
                        .predict_batch(&mut sess, &t.store_a.select(p))
                        .unwrap();
                }
            })
            .unwrap();
        let mut sess = t
            .keys_b
            .session(ep_b, cfg, Role::B, party_seed(Role::B, seed));
        let mut model = import_party_b(&t.bytes_b).unwrap();
        let mut map = HashMap::new();
        for p in &parts {
            let logits = model
                .predict_batch(&mut sess, &t.store_b.select(p))
                .unwrap();
            for (k, &row) in p.iter().enumerate() {
                let bits: Vec<u64> = logits.row(k).iter().map(|v| v.to_bits()).collect();
                map.insert(row as u64, bits);
            }
        }
        map
    })
}

/// A pipelined client fleet: each plan's rows are submitted
/// back-to-back on one connection, then every reply is drained in
/// order. Returns per-client (row, bits-or-reject) in reply order.
type ClientLog = Vec<(u64, Result<Vec<u64>, GatewayReject>)>;

fn drive_clients(addr: SocketAddr, plans: Vec<Vec<u64>>) -> Vec<ClientLog> {
    std::thread::scope(|s| {
        let handles: Vec<_> = plans
            .into_iter()
            .map(|plan| {
                s.spawn(move || {
                    let mut client = GatewayClient::connect(addr, CONNECT_TIMEOUT).unwrap();
                    for &row in &plan {
                        client.submit(row).unwrap();
                    }
                    let mut log = ClientLog::new();
                    while client.in_flight() > 0 {
                        let (row, reply) = client.recv().unwrap();
                        log.push((row, reply.map(|l| l.iter().map(|v| v.to_bits()).collect())));
                    }
                    log
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    })
}

/// Assert every answered reply in `logs` matches the replayed bits
/// for its row, and return how many replies were answered.
fn check_parity_against(logs: &[ClientLog], replayed: &HashMap<u64, Vec<u64>>) -> usize {
    let mut answered = 0;
    for log in logs {
        for (row, reply) in log {
            let bits = reply.as_ref().expect("reply was a rejection");
            assert_eq!(
                bits,
                replayed
                    .get(row)
                    .unwrap_or_else(|| panic!("row {row} absent from the replay")),
                "row {row}: gateway bits diverged from the direct forward"
            );
            answered += 1;
        }
    }
    answered
}

/// One full 2-party parity cell: serve `rows` globally-distinct rows
/// through `n_replicas` replicas from `n_clients` pipelined clients,
/// then replay every replica's partitions and compare bits.
fn check_two_party_cell(cfg: &FedConfig, rows: usize, n_replicas: usize, n_clients: usize) {
    let t = train_and_export(cfg, rows);
    let n = t.store_a.rows();
    let plans: Vec<Vec<u64>> = (0..n_clients)
        .map(|c| ((c as u64)..(n as u64)).step_by(n_clients).collect())
        .collect();
    let (report, logs) = two_party_gateway(
        cfg,
        &t,
        n_replicas,
        &GatewayConfig {
            max_batch: 8,
            ..GatewayConfig::default()
        },
        None,
        |addr| drive_clients(addr, plans),
    );
    // Accounting: every request answered, nothing rejected or lost.
    assert_eq!(report.answered, n as u64);
    assert_eq!(report.rejected, 0);
    assert_eq!(report.orphaned, 0);
    assert_eq!(report.clients, n_clients as u64);
    assert_eq!(report.requests(), n as u64);
    assert_eq!(report.replicas.len(), n_replicas);
    assert!(report.replica_failures.is_empty());
    assert!(report.sustained_qps() > 0.0);
    assert!(report.p99_latency_secs() >= report.p50_latency_secs());
    // Parity by replay: each replica's exact partitions, re-run
    // directly under the replica's seed.
    let mut replayed = HashMap::new();
    for (r, rep) in report.replicas.iter().enumerate() {
        assert_eq!(
            rep.batch_rows.iter().map(Vec::len).sum::<usize>() as u64,
            rep.requests,
            "replica {r} partition record is incomplete"
        );
        replayed.extend(replay_two_party(
            cfg,
            &t,
            gateway_replica_seed(SERVE_SEED, r),
            &rep.batch_rows,
        ));
    }
    assert_eq!(check_parity_against(&logs, &replayed), n);
    check_against_training(&logs, &t.trained_logits);
}

#[test]
fn gateway_parity_two_party_plain() {
    check_two_party_cell(&FedConfig::plain(), 64, 3, 4);
}

#[test]
fn gateway_parity_two_party_paillier_packed() {
    check_two_party_cell(&FedConfig::paillier_test(), 320, 2, 2);
}

/// [`Trained`] for `M` guests: one blob, store and key pair per guest,
/// and on the host one key pair per link.
struct TrainedMulti {
    guest_bytes: Vec<Vec<u8>>,
    host_bytes: Vec<u8>,
    guest_keys: Vec<KeyPair>,
    host_keys: Vec<KeyPair>,
    guest_stores: Vec<Dataset>,
    store_b: Dataset,
    trained_logits: Dense,
}

/// One session per link under the reloaded training keys, guests on
/// scoped threads running `guest`, the host sessions returned in link
/// order — the wiring both the replicas and the replay use.
fn multi_sessions<'s, 'e: 's>(
    s: &'s std::thread::Scope<'s, 'e>,
    cfg: &'e FedConfig,
    t: &'e TrainedMulti,
    seed: u64,
    guest: impl Fn(usize, Session) + Send + Copy + 's,
) -> Vec<Session> {
    (0..t.guest_keys.len())
        .map(|i| {
            let (ep_a, ep_b) = bf_mpc::channel_pair();
            std::thread::Builder::new()
                .name(format!("gw-guest-{i}"))
                .stack_size(16 << 20)
                .spawn_scoped(s, move || {
                    let seed = multi_party_seed(Role::A, i, seed);
                    guest(i, t.guest_keys[i].session(ep_a, cfg, Role::A, seed));
                })
                .unwrap();
            t.host_keys[i].session(ep_b, cfg, Role::B, multi_party_seed(Role::B, i, seed))
        })
        .collect()
}

/// Multi-guest fixture: train an `M = 2` model and export every half.
fn train_and_export_multi(cfg: &FedConfig, m: usize, rows: usize) -> TrainedMulti {
    let ds = spec("a9a").scaled(rows, 1);
    let (train, test) = generate(&ds, 7);
    let train_v = vsplit_multi(&train, m);
    let test_v = vsplit_multi(&test, m);
    let spec = FedSpec::Glm { out: 1 };
    let tc = train_cfg(1);
    // `train_federated_multi`'s wiring, with the sessions in reach so
    // their keys can be persisted.
    std::thread::scope(|s| {
        let mut host_eps = Vec::with_capacity(m);
        let mut handles = Vec::with_capacity(m);
        for (i, (train_a, test_a)) in train_v.guests.iter().zip(&test_v.guests).enumerate() {
            let (ep_a, ep_b) = bf_mpc::channel_pair();
            host_eps.push(ep_b);
            let (spec, tc) = (&spec, &tc);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("train-guest-{i}"))
                    .stack_size(16 << 20)
                    .spawn_scoped(s, move || {
                        send_hello(&ep_a, i, m).unwrap();
                        let seed = multi_party_seed(Role::A, i, TRAIN_SEED);
                        let mut sess =
                            Session::handshake(ep_a, cfg.clone(), Role::A, seed).unwrap();
                        let run = run_party_a(&mut sess, spec, tc, train_a, test_a).unwrap();
                        (export_party_a(&run.model), KeyPair::of(&sess))
                    })
                    .unwrap(),
            );
        }
        let mut sessions: Vec<Session> = collect_guests(host_eps, m)
            .unwrap()
            .into_iter()
            .enumerate()
            .map(|(i, ep)| {
                let seed = multi_party_seed(Role::B, i, TRAIN_SEED);
                Session::handshake(ep, cfg.clone(), Role::B, seed).unwrap()
            })
            .collect();
        let host =
            run_party_b(&mut sessions, &spec, &tc, &train_v.party_b, &test_v.party_b).unwrap();
        let (guest_bytes, guest_keys) = handles.into_iter().map(|h| h.join().unwrap()).unzip();
        TrainedMulti {
            guest_bytes,
            host_bytes: export_party_b(&host.model),
            guest_keys,
            host_keys: sessions.iter().map(KeyPair::of).collect(),
            guest_stores: test_v.guests.clone(),
            store_b: test_v.party_b.clone(),
            trained_logits: host.test_logits,
        }
    })
}

/// Stand up a multi-guest gateway and drive it (multi analogue of
/// [`two_party_gateway`]).
fn multi_guest_gateway<T: Send>(
    cfg: &FedConfig,
    t: &TrainedMulti,
    n_replicas: usize,
    gw_cfg: &GatewayConfig,
    drive: impl FnOnce(SocketAddr) -> T + Send,
) -> (GatewayReport, T) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let mut replicas = Vec::new();
        for r in 0..n_replicas {
            let seed = gateway_replica_seed(SERVE_SEED, r);
            let sessions = multi_sessions(s, cfg, t, seed, |i, mut sess| {
                let mut model = import_party_a(&t.guest_bytes[i]).unwrap();
                serve_party_a(&mut sess, &mut model, &t.guest_stores[i]).unwrap();
            });
            let model: PartyBModel = import_party_b(&t.host_bytes).unwrap();
            replicas.push(GatewayReplica::MultiGuest { sessions, model });
        }
        let (stop_ref, store_b) = (&stop, &t.store_b);
        let gw = std::thread::Builder::new()
            .name("gateway".into())
            .stack_size(16 << 20)
            .spawn_scoped(s, move || {
                run_gateway(listener, replicas, store_b, gw_cfg, stop_ref).unwrap()
            })
            .unwrap();
        let out = drive(addr);
        stop.store(true, Ordering::Relaxed);
        (gw.join().unwrap(), out)
    })
}

/// Replay one multi-guest replica's partitions directly.
fn replay_multi_guest(
    cfg: &FedConfig,
    t: &TrainedMulti,
    seed: u64,
    partitions: &[Vec<u32>],
) -> HashMap<u64, Vec<u64>> {
    let parts: Vec<Vec<usize>> = partitions
        .iter()
        .map(|p| p.iter().map(|&r| r as usize).collect())
        .collect();
    std::thread::scope(|s| {
        let parts = &parts;
        let mut sessions = multi_sessions(s, cfg, t, seed, move |i, mut sess| {
            let mut model = import_party_a(&t.guest_bytes[i]).unwrap();
            for p in parts {
                model
                    .predict_batch(&mut sess, &t.guest_stores[i].select(p))
                    .unwrap();
            }
        });
        let mut model: PartyBModel = import_party_b(&t.host_bytes).unwrap();
        let mut map = HashMap::new();
        for p in parts {
            let logits = model
                .predict_batch(&mut sessions, &t.store_b.select(p))
                .unwrap();
            for (k, &row) in p.iter().enumerate() {
                let bits: Vec<u64> = logits.row(k).iter().map(|v| v.to_bits()).collect();
                map.insert(row as u64, bits);
            }
        }
        map
    })
}

/// One full multi-guest parity cell.
fn check_multi_guest_cell(cfg: &FedConfig, rows: usize, n_replicas: usize, n_clients: usize) {
    let m = 2;
    let t = train_and_export_multi(cfg, m, rows);
    let n = t.store_b.rows();
    let plans: Vec<Vec<u64>> = (0..n_clients)
        .map(|c| ((c as u64)..(n as u64)).step_by(n_clients).collect())
        .collect();
    let (report, logs) = multi_guest_gateway(
        cfg,
        &t,
        n_replicas,
        &GatewayConfig {
            max_batch: 8,
            ..GatewayConfig::default()
        },
        |addr| drive_clients(addr, plans),
    );
    assert_eq!(report.answered, n as u64);
    assert_eq!(report.rejected, 0);
    assert_eq!(report.orphaned, 0);
    assert_eq!(report.requests(), n as u64);
    assert!(report.replica_failures.is_empty());
    let mut replayed = HashMap::new();
    for (r, rep) in report.replicas.iter().enumerate() {
        replayed.extend(replay_multi_guest(
            cfg,
            &t,
            gateway_replica_seed(SERVE_SEED, r),
            &rep.batch_rows,
        ));
    }
    assert_eq!(check_parity_against(&logs, &replayed), n);
    check_against_training(&logs, &t.trained_logits);
}

#[test]
fn gateway_parity_multi_guest_plain() {
    check_multi_guest_cell(&FedConfig::plain(), 128, 2, 3);
}

#[test]
fn gateway_parity_multi_guest_paillier_packed() {
    check_multi_guest_cell(&FedConfig::paillier_test(), 640, 2, 2);
}

#[test]
fn client_churn_never_stalls_the_gateway_or_corrupts_replies() {
    // 3 surviving clients serve 48 distinct rows; 2 churn clients
    // submit 8 distinct rows each and vanish without reading a single
    // reply (their sockets close while their requests are anywhere
    // from kernel buffer to mid-batch). The gateway must drain, the
    // survivors' bits must still replay exactly, and every admitted
    // churned request must be accounted as answered or orphaned.
    let cfg = FedConfig::plain();
    let t = train_and_export(&cfg, 64);
    // Survivors split the first 3/4 of the store's rows; churners
    // split the rest — every row globally distinct so the replay map
    // is single-valued.
    let n = t.store_a.rows() as u64;
    let split = n * 3 / 4;
    let mid = split + (n - split) / 2;
    let survivor_rows: Vec<Vec<u64>> = (0..3u64).map(|c| (c..split).step_by(3).collect()).collect();
    let churn_rows: Vec<Vec<u64>> = vec![(split..mid).collect(), (mid..n).collect()];
    let total_survivor: usize = survivor_rows.iter().map(Vec::len).sum();
    let total_churn: u64 = churn_rows.iter().map(|p| p.len() as u64).sum();
    let (report, logs) = two_party_gateway(
        &cfg,
        &t,
        2,
        &GatewayConfig {
            max_batch: 4,
            ..GatewayConfig::default()
        },
        None,
        |addr| {
            std::thread::scope(|s| {
                // Churners: submit, then drop the connection cold.
                for plan in churn_rows {
                    s.spawn(move || {
                        let mut client = GatewayClient::connect(addr, CONNECT_TIMEOUT).unwrap();
                        for &row in &plan {
                            client.submit(row).unwrap();
                        }
                        // Stagger the drops so some requests die in
                        // kernel buffers and some mid-batch.
                        std::thread::sleep(Duration::from_millis(plan[0] % 3));
                        drop(client);
                    });
                }
                drive_clients(addr, survivor_rows)
            })
        },
    );
    // Survivors: every reply delivered and bit-exact under replay.
    let mut replayed = HashMap::new();
    for (r, rep) in report.replicas.iter().enumerate() {
        replayed.extend(replay_two_party(
            &cfg,
            &t,
            gateway_replica_seed(SERVE_SEED, r),
            &rep.batch_rows,
        ));
    }
    assert_eq!(check_parity_against(&logs, &replayed), total_survivor);
    // Accounting: nothing vanishes. All survivor requests are
    // answered; churned requests are either answered-before-the-drop,
    // orphaned, or never admitted (died in a kernel buffer).
    assert_eq!(report.rejected, 0);
    assert!(report.answered >= total_survivor as u64);
    assert!(report.answered + report.orphaned <= total_survivor as u64 + total_churn);
    // Every forwarded request was delivered or orphaned.
    assert_eq!(report.requests(), report.answered + report.orphaned);
    assert!(report.replica_failures.is_empty());
    assert_eq!(report.clients, 5);
}

#[test]
fn shed_load_rejects_overflow_and_accounts_for_it() {
    // One replica behind a WAN-latency link, a 2-deep shard, and a
    // client that pipelines 32 requests: with shed_load the gateway
    // answers GW_OVERLOADED immediately instead of queueing without
    // bound, and requests + rejections add up exactly.
    let cfg = FedConfig::plain();
    let t = train_and_export(&cfg, 500);
    let n = t.store_a.rows() as u64;
    let (report, log) = two_party_gateway(
        &cfg,
        &t,
        1,
        &GatewayConfig {
            max_batch: 2,
            shard_depth: 2,
            shed_load: true,
            ..GatewayConfig::default()
        },
        Some(NetworkProfile::wan_100mbps()),
        |addr| {
            let mut client = GatewayClient::connect(addr, CONNECT_TIMEOUT).unwrap();
            for row in 0..n {
                client.submit(row).unwrap();
            }
            let mut log = ClientLog::new();
            while client.in_flight() > 0 {
                let (row, reply) = client.recv().unwrap();
                log.push((row, reply.map(|l| l.iter().map(|v| v.to_bits()).collect())));
            }
            log
        },
    );
    let answered = log.iter().filter(|(_, r)| r.is_ok()).count() as u64;
    let shed = log
        .iter()
        .filter(|(_, r)| r == &Err(GatewayReject::Overloaded))
        .count() as u64;
    assert_eq!(answered + shed, n, "every reply is logits or Overloaded");
    assert!(answered > 0, "the admitted head of the pipeline is served");
    assert!(shed > 0, "a 2-deep shard cannot absorb 32 pipelined rows");
    assert_eq!(report.answered, answered);
    assert_eq!(report.rejected, shed);
    assert_eq!(report.requests(), answered);
    assert_eq!(report.answered + report.rejected, n);
    // The pipelined client held its plan in flight at once: the first
    // batch sits out a WAN round trip while every later request, shed
    // ones included, queues behind it in the connection's FIFO.
    assert!(
        report.peak_in_flight >= n / 2,
        "peak in flight {} of {n} pipelined requests",
        report.peak_in_flight
    );
}

#[test]
fn bad_rows_are_rejected_at_the_front_door() {
    let cfg = FedConfig::plain();
    let t = train_and_export(&cfg, 250);
    let n = t.store_a.rows() as u64;
    let (report, log) = two_party_gateway(&cfg, &t, 1, &GatewayConfig::default(), None, |addr| {
        let mut client = GatewayClient::connect(addr, CONNECT_TIMEOUT).unwrap();
        client.submit(0).unwrap();
        client.submit(9999).unwrap(); // past the store
        client.submit(u64::MAX).unwrap(); // would truncate as u32
        client.submit(n - 1).unwrap();
        let mut log = ClientLog::new();
        while client.in_flight() > 0 {
            let (row, reply) = client.recv().unwrap();
            log.push((row, reply.map(|l| l.iter().map(|v| v.to_bits()).collect())));
        }
        log
    });
    // FIFO reply order with per-request status.
    assert_eq!(log.len(), 4);
    assert_eq!(log[0].0, 0);
    assert!(log[0].1.is_ok());
    assert_eq!(log[1], (9999, Err(GatewayReject::BadRow)));
    assert_eq!(log[2], (u64::MAX, Err(GatewayReject::BadRow)));
    assert_eq!(log[3].0, n - 1);
    assert!(log[3].1.is_ok());
    // Bad rows never reach a replica and are fully accounted.
    assert_eq!(report.answered, 2);
    assert_eq!(report.rejected, 2);
    assert_eq!(report.requests(), 2);
    assert_eq!(
        report.replicas[0].rejected, 0,
        "front-door rejections never reach the replica"
    );
}
