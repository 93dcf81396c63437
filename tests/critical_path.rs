//! Critical-path depth, pinned in one-way latencies.
//!
//! On a link whose one-way latency `L` dwarfs compute (Plain backend,
//! infinite bandwidth), a protocol step costs the number of direction
//! reversals on its dependency chain times `L`; message count does not
//! matter once the link streams. These cells pin that depth:
//!
//! * a served micro-batch is **2**: `Support` + `⟦X_B V_B − ε⟧` → A,
//!   then `⟦X_A V_A − ε⟧` + `Z'_A` → B (`docs/ARCHITECTURE.md`,
//!   "Per-batch dependency chains");
//! * a pipelined two-party MatMul training batch is **4**: `Z'_A` → B;
//!   `⟦∇Z⟧` → A; `Support` + HE2SS reply → B; `⟦ΔV_A⟧` plus B's
//!   next-batch forward upload → A;
//! * a pipelined two-party WDL training batch is **14**: the MatMul
//!   chain plus ten for the Embed-MatMul source (the table is in
//!   `docs/ARCHITECTURE.md`).
//!
//! The served request and the MatMul batch are pinned twice: over an
//! in-process link and over a TCP link that survives drops
//! ([`Endpoint::with_reconnect`]) — a reconnecting link streams too.
//!
//! The upper bounds leave 0.6 `L` for scheduling noise; a step that
//! gains a reversal lands a whole `L` above its bound.

use std::net::TcpListener;
use std::sync::Arc;
use std::time::Duration;

use bf_datagen::{generate, spec as dataset_spec, vsplit};
use bf_ml::data::Dataset;
use bf_mpc::transport::{channel_pair_with_network, NetworkProfile, Redial, RetryPolicy};
use bf_mpc::Endpoint;
use blindfl::config::FedConfig;
use blindfl::engine::TrainMode;
use blindfl::models::{FedSpec, PartyAModel, PartyBModel};
use blindfl::serve::{queue, serve_party_a, serve_party_b, ServeConfig};
use blindfl::session::{party_seed, Role, Session};
use blindfl::train::{run_party_a, run_party_b, FedTrainConfig};

/// One-way latency of the simulated link.
const L: Duration = Duration::from_millis(25);
const SEED: u64 = 41;

/// The first `rows` rows of an a9a-shape split, as (guest, host)
/// slices.
fn slices(rows: usize) -> ((Dataset, Dataset), (Dataset, Dataset)) {
    let (train, test) = generate(&dataset_spec("a9a").scaled(64, 1), 5);
    let head = |d: &Dataset, n: usize| {
        let v = vsplit(&d.select(&(0..n).collect::<Vec<_>>()));
        (v.party_a, v.party_b)
    };
    (head(&train, rows), head(&test, 16))
}

/// Latency `L`, infinite bandwidth.
fn profile() -> NetworkProfile {
    NetworkProfile {
        latency: L,
        bytes_per_sec: 0,
    }
}

/// A fresh in-process link.
fn in_process() -> (Endpoint, Endpoint) {
    channel_pair_with_network(profile())
}

/// A fresh localhost TCP link whose ends redial / re-accept after a
/// drop, with the simulated profile on top.
fn reconnecting_tcp() -> (Endpoint, Endpoint) {
    let listener = Arc::new(TcpListener::bind("127.0.0.1:0").unwrap());
    let addr = listener.local_addr().unwrap();
    let policy = RetryPolicy::default();
    // The kernel completes a localhost connect from the listen backlog.
    let guest = Endpoint::tcp_connect(addr).unwrap();
    let host = Endpoint::tcp_accept(&listener).unwrap();
    (
        (guest.with_reconnect(Redial::Connect(addr), policy, 8)).with_network(profile()),
        (host.with_reconnect(Redial::Accept(listener), policy, 8)).with_network(profile()),
    )
}

/// Run guest and host as two threads over `link`, each on a Plain
/// session.
fn over<RA: Send>(
    (ep_a, ep_b): (Endpoint, Endpoint),
    guest: impl FnOnce(Session) -> RA + Send,
    host: impl FnOnce(Session) -> f64,
) -> f64 {
    let cfg = FedConfig::plain();
    std::thread::scope(|s| {
        let cfg_a = cfg.clone();
        let a = s.spawn(move || {
            guest(Session::handshake(ep_a, cfg_a, Role::A, party_seed(Role::A, SEED)).unwrap())
        });
        let b = host(Session::handshake(ep_b, cfg, Role::B, party_seed(Role::B, SEED)).unwrap());
        a.join().unwrap();
        b
    })
}

/// Assert that `secs` lies in `[depth·L, (depth + 0.6)·L]`.
fn assert_depth(what: &str, secs: f64, depth: f64) {
    let l = L.as_secs_f64();
    assert!(
        secs >= depth * l && secs <= (depth + 0.6) * l,
        "{what}: {:.1} ms is not {depth} one-way latencies of {:.0} ms",
        secs * 1e3,
        l * 1e3
    );
}

#[test]
fn a_served_request_takes_two_one_way_latencies() {
    let best = served_request_secs(in_process());
    assert_depth("served single-row request", best, 2.0);
}

#[test]
fn a_served_request_on_a_reconnecting_tcp_link_takes_two_one_way_latencies() {
    let best = served_request_secs(reconnecting_tcp());
    assert_depth("served single-row request (reconnecting TCP)", best, 2.0);
}

/// The fastest of three single-row requests served over `link`.
fn served_request_secs(link: (Endpoint, Endpoint)) -> f64 {
    let ((store_a, store_b), _) = slices(8);
    let spec = FedSpec::Glm { out: 1 };
    over(
        link,
        |mut sess| {
            let mut model = PartyAModel::init(&mut sess, &spec, &store_a).unwrap();
            serve_party_a(&mut sess, &mut model, &store_a).unwrap()
        },
        |mut sess| {
            let mut model = PartyBModel::init(&mut sess, &spec, &store_b).unwrap();
            let (client, q) = queue(4);
            std::thread::scope(|s| {
                let cfg = ServeConfig { max_batch: 1 };
                let store_b = &store_b;
                let server = s
                    .spawn(move || serve_party_b(&mut sess, &mut model, store_b, &cfg, q).unwrap());
                // One request at a time: each rides a batch of its own,
                // and the fastest of three is the depth.
                let best = (0..3)
                    .map(|row| client.predict(row).unwrap().latency)
                    .min()
                    .unwrap();
                drop(client);
                assert_eq!(server.join().unwrap().batches, 3);
                best.as_secs_f64()
            })
        },
    )
}

/// Seconds per batch of a pipelined training epoch of `spec` over six
/// 16-row batches on `link`.
fn pipelined_batch_secs(link: (Endpoint, Endpoint), spec: &FedSpec) -> f64 {
    let ((train_a, train_b), (test_a, test_b)) = slices(96);
    let tc = FedTrainConfig {
        base: bf_ml::TrainConfig {
            epochs: 1,
            batch_size: 16,
            ..Default::default()
        },
        mode: TrainMode::pipelined(),
        ..Default::default()
    };
    over(
        link,
        |mut sess| run_party_a(&mut sess, spec, &tc, &train_a, &test_a).unwrap(),
        |mut sess| {
            let run = run_party_b(&mut sess, spec, &tc, &train_b, &test_b).unwrap();
            assert_eq!(run.losses.len(), 6);
            run.train_secs / run.losses.len() as f64
        },
    )
}

#[test]
fn a_pipelined_training_batch_takes_four_one_way_latencies() {
    let per_batch = pipelined_batch_secs(in_process(), &FedSpec::Glm { out: 1 });
    assert_depth("pipelined training batch", per_batch, 4.0);
}

#[test]
fn a_pipelined_training_batch_on_a_reconnecting_tcp_link_takes_four_one_way_latencies() {
    let per_batch = pipelined_batch_secs(reconnecting_tcp(), &FedSpec::Glm { out: 1 });
    assert_depth(
        "pipelined training batch (reconnecting TCP)",
        per_batch,
        4.0,
    );
}

#[test]
fn a_pipelined_wdl_training_batch_takes_fourteen_one_way_latencies() {
    // Every frame of the Embed-MatMul backward rides a reversal the
    // chain already has: B's HE2SS-split ⟦∇E_A⟧ travels with ⟦∇Z⟧.
    let spec = FedSpec::Wdl {
        emb_dim: 4,
        deep_hidden: vec![8],
        out: 1,
    };
    let per_batch = pipelined_batch_secs(in_process(), &spec);
    assert_depth("pipelined WDL training batch", per_batch, 14.0);
}
