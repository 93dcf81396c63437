//! Federated gradient-boosting equivalence suite (SecureBoost-style
//! trees): the federated forest must be **bit-identical** to a
//! collocated single-process XGBoost twin trained on the same rows.
//!
//! Why bit-exact and not a tolerance: every histogram sum both sides
//! compute is an exact `i64` on the `2^-frac_bits` fixed-point grid —
//! the Paillier codec rounds each gradient onto the grid at
//! encryption, the Plain backend quantizes identically, a 0/1 bucket
//! indicator is exact under the homomorphic contraction, and the host
//! re-quantizes decrypted aggregates with the same rounding. Identical
//! integer histograms force identical `f64` gains, argmaxes and leaf
//! weights, hence identical trees, losses and served margins.
//!
//! The contract is proved in four links:
//!
//! 1. **Forest identity** — for 2-party (`M = 1`) and `M = 2`, on
//!    Plain, on Paillier-256/Packed (2 slots: histogram replies ship
//!    as the kernel produced them) and on Paillier-512/frac-16/Packed
//!    (7 slots: guests fold their replies 3-to-1), the host's trees
//!    equal the twin's trees node for node (global feature ids line up
//!    because the global order is guest links first, host last —
//!    exactly the twin's column order), and the loss curves match bit
//!    for bit.
//! 2. **Predicate custody** — replaying the host's trees in node
//!    order reproduces each guest's recorded `(feature, threshold)`
//!    list exactly, and each guest threshold equals the twin's bucket
//!    edge for that (global feature, bucket).
//! 3. **Transports cannot matter** — in-process channel and TCP runs
//!    produce the same forest with byte-identical per-link
//!    `TrafficStats`, both directions.
//! 4. **Persist → serve** — both model halves round-trip through BFMD
//!    byte-exactly, and the reloaded forest serves every row through
//!    the micro-batching queue bit-identical to `twin.predict`.

use std::net::TcpListener;

use bf_datagen::{generate_tree, vsplit_multi};
use bf_ml::data::Dataset;
use bf_ml::gbdt::{CollocatedGbdt, GbdtParams, Node};
use bf_mpc::Endpoint;
use bf_paillier::{PaillierMode, SlotLayout};
use blindfl::config::{Backend, FedConfig};
use blindfl::multiparty::{collect_guests, send_hello};
use blindfl::serve::{queue, ServeConfig};
use blindfl::session::{multi_party_seed, Role, Session};
use blindfl::trees::{
    gbdt_guest_over, run_gbdt_host, serve_gbdt_guest, serve_gbdt_host, train_gbdt, GbdtFedOutcome,
};
use blindfl::{export_gbdt_guest, export_gbdt_host, import_gbdt_guest, import_gbdt_host};

const SEED: u64 = 41;
const DATA_SEED: u64 = 13;
const ROWS: usize = 64;
const FEATURES: usize = 6;

fn data() -> Dataset {
    generate_tree(ROWS, FEATURES, DATA_SEED)
}

/// A key under which the histogram fold is live: 7 slots of 72 bits, so
/// three 2-slot `(Σg, Σh)` rows share a ciphertext. (`paillier_test`'s
/// 256-bit/frac-24 key holds 2 slots — nothing to fold.)
fn paillier_folding() -> FedConfig {
    let cfg = FedConfig {
        backend: Backend::Paillier { key_bits: 512 },
        frac_bits: 16,
        ..FedConfig::paillier_test()
    };
    assert_eq!(SlotLayout::for_key(512, cfg.frac_bits).unwrap().slots, 7);
    cfg
}

/// Boosting hyper-parameters for one backend. `frac_bits` must equal
/// the session codec's so the host's re-quantization grid is the grid
/// the ciphertexts were rounded onto.
fn params_for(cfg: &FedConfig) -> GbdtParams {
    GbdtParams {
        trees: 3,
        max_depth: 3,
        max_bins: 8,
        frac_bits: cfg.frac_bits,
        ..GbdtParams::default()
    }
}

/// The collocated twin: same rows, same hyper-parameters, and — by
/// construction of `vsplit_multi` — the same global feature order
/// (guest slices concatenate to the first half, host half follows).
fn twin(cfg: &FedConfig) -> (CollocatedGbdt, Vec<f64>) {
    CollocatedGbdt::train(&data(), &params_for(cfg))
}

/// One federated training run, `M` guests, channel or TCP transport.
fn run_fed(cfg: &FedConfig, m: usize, tcp: bool) -> GbdtFedOutcome {
    let split = vsplit_multi(&data(), m);
    let params = params_for(cfg);
    if !tcp {
        return train_gbdt(cfg, &params, split.guests, &split.party_b, SEED);
    }
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind localhost");
    let addr = listener.local_addr().unwrap();
    let mut handles = Vec::new();
    for (i, store) in split.guests.into_iter().enumerate() {
        let cfg_a = cfg.clone();
        let params_a = params.clone();
        handles.push(
            std::thread::Builder::new()
                .name(format!("trees-guest-{i}"))
                .stack_size(16 << 20)
                .spawn(move || {
                    let ep = Endpoint::tcp_connect(addr).expect("guest connect");
                    gbdt_guest_over(ep, cfg_a, &params_a, i, m, &store, SEED).expect("guest run")
                })
                .expect("spawn guest"),
        );
    }
    let accepted: Vec<Endpoint> = (0..m)
        .map(|_| Endpoint::tcp_accept(&listener).expect("accept"))
        .collect();
    let ordered = collect_guests(accepted, m).expect("fan-in");
    let mut sessions: Vec<Session> = ordered
        .into_iter()
        .enumerate()
        .map(|(i, ep)| {
            Session::handshake(ep, cfg.clone(), Role::B, multi_party_seed(Role::B, i, SEED))
                .expect("host handshake")
        })
        .collect();
    let host = run_gbdt_host(&mut sessions, &split.party_b, &params).expect("host run");
    let guests = handles
        .into_iter()
        .map(|h| h.join().expect("guest thread"))
        .collect();
    GbdtFedOutcome { host, guests }
}

/// Links 1 + 2 for one backend and guest count: forest, losses and
/// guest predicate custody all match the twin bit for bit.
fn assert_forest_identity(cfg: &FedConfig, m: usize) {
    let fed = run_fed(cfg, m, false);
    let (tw, tw_losses) = twin(cfg);

    // Bit-exact loss curve — the strongest possible statement that
    // both sides walked the same boosting trajectory.
    assert_eq!(fed.host.losses, tw_losses, "M={m}: loss curves diverged");
    assert_eq!(
        fed.host.model.trees, tw.trees,
        "M={m}: forest topology diverged from the twin"
    );
    assert_eq!(fed.host.model.base_score, tw.params.base_score);

    // The host's threshold knowledge is exactly its own feature tail.
    let guest_width: usize = fed.host.model.guest_widths.iter().sum();
    assert_eq!(fed.host.model.host_edges[..], tw.edges[guest_width..]);

    // Predicate custody: walking the host trees in node order
    // reproduces each guest's record list — feature by feature,
    // threshold by threshold (the threshold being the twin's bucket
    // edge the host itself never saw).
    let mut counters = vec![0usize; m];
    for tree in &fed.host.model.trees {
        for node in &tree.nodes {
            let Node::Split {
                feature, bucket, ..
            } = node
            else {
                continue;
            };
            let mut local = *feature as usize;
            let mut link = None;
            for (l, &w) in fed.host.model.guest_widths.iter().enumerate() {
                if local < w {
                    link = Some(l);
                    break;
                }
                local -= w;
            }
            if let Some(l) = link {
                let rec = &fed.guests[l].model.records[counters[l]];
                counters[l] += 1;
                assert_eq!(rec.feature as usize, local, "M={m}: record feature");
                assert_eq!(
                    rec.threshold.to_bits(),
                    tw.edges[*feature as usize][*bucket as usize].to_bits(),
                    "M={m}: guest threshold is not the twin's bucket edge"
                );
            }
        }
    }
    for (l, g) in fed.guests.iter().enumerate() {
        assert_eq!(
            g.model.records.len(),
            counters[l],
            "M={m}: guest {l} recorded extra predicates"
        );
    }
    assert_eq!(counters, fed.host.model.records_per_link());
    // The planted XOR lives in columns 0/1 — guest-owned under every
    // split — so a forest with no guest splits would be vacuous.
    assert!(
        counters.iter().sum::<usize>() > 0,
        "M={m}: no guest-owned splits; the parity check proved nothing"
    );
    // Boosting actually learned: losses strictly improve overall.
    assert!(fed.host.losses.last().unwrap() < fed.host.losses.first().unwrap());
}

#[test]
fn plain_forest_matches_collocated_twin() {
    for m in [1usize, 2] {
        assert_forest_identity(&FedConfig::plain(), m);
    }
}

#[test]
fn paillier_packed_forest_matches_collocated_twin() {
    let cfg = FedConfig::paillier_test();
    // Guard: the cell really runs ciphertexts, not a degraded Plain.
    assert!(matches!(cfg.backend, Backend::Paillier { key_bits: 256 }));
    for m in [1usize, 2] {
        assert_forest_identity(&cfg, m);
    }
}

#[test]
fn paillier_folded_forest_matches_collocated_twin() {
    let cfg = paillier_folding();
    for m in [1usize, 2] {
        assert_forest_identity(&cfg, m);
    }
    // Guard: the fold really ran. A guest's traffic is histogram
    // replies plus a few row lists; scalar replies are 2 ciphertexts a
    // cell, unfolded packed ones 1, folded ones ⅓.
    let packed = run_fed(&cfg, 1, false);
    let scalar = run_fed(
        &cfg.clone().with_paillier_mode(PaillierMode::Scalar),
        1,
        false,
    );
    assert_eq!(packed.host.model, scalar.host.model);
    assert!(
        packed.guests[0].bytes_sent * 4 < scalar.guests[0].bytes_sent,
        "folded replies: {} bytes, scalar: {}",
        packed.guests[0].bytes_sent,
        scalar.guests[0].bytes_sent
    );
}

/// Link 3 for one backend: channel and TCP runs produce the same
/// forest with byte-identical per-link traffic, both directions.
fn assert_transport_parity(cfg: &FedConfig) {
    let m = 2;
    let inproc = run_fed(cfg, m, false);
    let tcp = run_fed(cfg, m, true);
    assert_eq!(inproc.host.losses, tcp.host.losses, "loss curves diverged");
    assert_eq!(inproc.host.model, tcp.host.model, "host models diverged");
    for (l, (a, b)) in inproc.guests.iter().zip(&tcp.guests).enumerate() {
        assert_eq!(a.model, b.model, "guest {l} models diverged");
        assert_eq!(
            a.bytes_sent, b.bytes_sent,
            "guest {l} A→B bytes diverged across transports"
        );
        assert!(a.bytes_sent > 0);
    }
    assert_eq!(
        inproc.host.bytes_sent_per_link, tcp.host.bytes_sent_per_link,
        "per-link B→A bytes diverged across transports"
    );
    assert!(inproc.host.bytes_sent_per_link.iter().all(|&b| b > 0));
}

#[test]
fn plain_transport_parity_per_link() {
    assert_transport_parity(&FedConfig::plain());
}

#[test]
fn paillier_transport_parity_per_link() {
    assert_transport_parity(&FedConfig::paillier_test());
}

#[test]
fn paillier_folded_transport_parity_per_link() {
    assert_transport_parity(&paillier_folding());
}

/// Link 4 for one backend: export both halves, reimport, and serve
/// every store row through the micro-batching queue — the served
/// margins equal `twin.predict` bit for bit.
fn assert_persist_and_serve(cfg: &FedConfig, m: usize) {
    let ds = data();
    let split = vsplit_multi(&ds, m);
    let fed = train_gbdt(
        cfg,
        &params_for(cfg),
        split.guests.clone(),
        &split.party_b,
        SEED,
    );
    let (tw, _) = twin(cfg);

    // BFMD round trip, byte-exact both halves.
    let host_blob = export_gbdt_host(&fed.host.model);
    let host_model = import_gbdt_host(&host_blob).expect("host import");
    assert_eq!(host_model, fed.host.model);
    assert_eq!(export_gbdt_host(&host_model), host_blob);
    let guest_models: Vec<_> = fed
        .guests
        .iter()
        .map(|g| {
            let blob = export_gbdt_guest(&g.model);
            let back = import_gbdt_guest(&blob).expect("guest import");
            assert_eq!(back, g.model);
            assert_eq!(export_gbdt_guest(&back), blob);
            back
        })
        .collect();

    // Fresh serving sessions (different seed: a deployment reloads
    // models into new processes; the forest walk must not depend on
    // any training-session state).
    let serve_seed = SEED + 1;
    let mut host_eps = Vec::with_capacity(m);
    let mut handles = Vec::with_capacity(m);
    for (i, (store, model)) in split.guests.into_iter().zip(guest_models).enumerate() {
        let (ep_a, ep_b) = bf_mpc::channel_pair();
        host_eps.push(ep_b);
        let cfg_a = cfg.clone();
        handles.push(
            std::thread::Builder::new()
                .name(format!("serve-guest-{i}"))
                .stack_size(16 << 20)
                .spawn(move || {
                    send_hello(&ep_a, i, m).expect("hello");
                    let mut sess = Session::handshake(
                        ep_a,
                        cfg_a,
                        Role::A,
                        multi_party_seed(Role::A, i, serve_seed),
                    )
                    .expect("guest handshake");
                    serve_gbdt_guest(&mut sess, &model, &store).expect("guest serve")
                })
                .expect("spawn guest"),
        );
    }
    let ordered = collect_guests(host_eps, m).expect("fan-in");
    let mut sessions: Vec<Session> = ordered
        .into_iter()
        .enumerate()
        .map(|(i, ep)| {
            Session::handshake(
                ep,
                cfg.clone(),
                Role::B,
                multi_party_seed(Role::B, i, serve_seed),
            )
            .expect("host handshake")
        })
        .collect();

    let twin_margins = tw.predict(ds.num.as_ref().unwrap());
    let (client, rq) = queue(8);
    let client_thread = std::thread::spawn(move || {
        (0..ROWS)
            .map(|r| client.predict(r).expect("prediction").logits[0])
            .collect::<Vec<f64>>()
    });
    let report = serve_gbdt_host(
        &mut sessions,
        &host_model,
        &split.party_b,
        &ServeConfig::default(),
        rq,
    )
    .expect("host serve");
    let served = client_thread.join().expect("client thread");
    let guest_reports: Vec<_> = handles
        .into_iter()
        .map(|h| h.join().expect("guest serve thread"))
        .collect();

    assert_eq!(report.requests, ROWS as u64);
    assert_eq!(report.rejected, 0);
    assert!(report.bytes_sent > 0);
    for gr in &guest_reports {
        assert_eq!(gr.rows, ROWS as u64);
        assert!(gr.bytes_sent > 0);
    }
    assert_eq!(served.len(), twin_margins.len());
    for (r, (&s, &t)) in served.iter().zip(&twin_margins).enumerate() {
        assert_eq!(
            s.to_bits(),
            t.to_bits(),
            "row {r}: served margin {s} != twin margin {t}"
        );
    }
}

#[test]
fn plain_persisted_forest_serves_twin_margins() {
    assert_persist_and_serve(&FedConfig::plain(), 2);
}

#[test]
fn paillier_persisted_forest_serves_twin_margins() {
    assert_persist_and_serve(&FedConfig::paillier_test(), 2);
}
