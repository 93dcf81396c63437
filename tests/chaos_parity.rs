//! The chaos-parity suite: fault-tolerant training must be **exactly**
//! fault-free training.
//!
//! Each cell of the matrix
//! `{two-party, M = 2 multi-guest} × {Plain, Paillier/Packed} ×
//! {in-process, TCP}` does the same experiment:
//!
//! 1. run the uninterrupted baseline (no checkpoints, no faults);
//! 2. rerun with mid-epoch checkpointing on and a scripted
//!    [`FaultAction::Kill`] at a (seed-derived) random batch — the
//!    killed party dies with a typed error carrying
//!    [`FAULT_KILL_MARKER`], and its peers die with link errors;
//! 3. restart every party from its latest checkpoint file (fresh
//!    endpoints, fresh handshakes from the *same* `(cfg, role, seed)`)
//!    and run to completion;
//! 4. assert the recovered run is **bit-identical** to the baseline:
//!    the full per-batch loss curve, the test metric, the per-link
//!    traffic totals, and the exported model bytes of every party.
//!
//! A dropped link needs no restart: a pipelined run over a TCP link
//! that redials and replays ([`Endpoint::with_reconnect`]) and is
//! severed by a scripted [`FaultAction::Drop`] must equal the same run
//! left alone, bit for bit.
//!
//! A separate test asserts the checkpoint mechanism itself is
//! wire-silent: an uninterrupted run with checkpointing enabled sends
//! exactly the same bytes as one without (capture is local-only).
//!
//! The checkpoint blobs' byte-exact round-trip and corruption
//! rejection are property-tested in `crates/core/tests/persist_prop.rs`;
//! the transport replay-cursor arithmetic is property-tested inside
//! `bf-mpc`.

use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use bf_datagen::{generate, spec as dataset_spec, vsplit, vsplit_misaligned, vsplit_multi};
use bf_ml::data::Dataset;
use bf_mpc::Endpoint;
use rand::{RngCore, SeedableRng};

use bf_mpc::fault::{FaultAction, FaultPlan};
use bf_mpc::transport::{Redial, RetryPolicy, TransportResult};
use blindfl::config::FedConfig;
use blindfl::engine::TrainMode;
use blindfl::models::FedSpec;
use blindfl::multiparty::{accept_guests, join_host, run_star};
use blindfl::persist::{export_party_a, export_party_b, import_checkpoint};
use blindfl::session::{party_seed, Role, Session};
use blindfl::train::{
    run_party_a, run_party_b, CheckpointCadence, FedTrainConfig, PartyARun, PartyBRun,
    FAULT_KILL_MARKER,
};
use blindfl::{psi_salt, AlignInput, Alignment};

const SEED: u64 = 29;
const DATA_SEED: u64 = 17;
const EPOCHS: usize = 2;
/// Checkpoint cadence used by every chaos cell.
const EVERY: u64 = 2;

fn base_tc(bs: usize) -> FedTrainConfig {
    FedTrainConfig {
        base: bf_ml::TrainConfig {
            epochs: EPOCHS,
            batch_size: bs,
            ..Default::default()
        },
        snapshot_u_a: false,
        ..Default::default()
    }
}

fn with_ckpt(mut tc: FedTrainConfig, path: &Path) -> FedTrainConfig {
    tc.checkpoint = Some(CheckpointCadence {
        every_batches: EVERY,
        path: path.to_path_buf(),
    });
    tc
}

/// `tc` resuming from the party's latest checkpoint file.
fn with_resume(mut tc: FedTrainConfig, checkpoint: &Path) -> FedTrainConfig {
    tc.resume = Some(std::fs::read(checkpoint).expect("checkpoint file"));
    tc
}

fn with_kill(mut tc: FedTrainConfig, at_batch: u64) -> FedTrainConfig {
    tc.fault = Some(FaultPlan {
        at_batch,
        action: FaultAction::Kill,
    });
    tc
}

fn with_drop(mut tc: FedTrainConfig, at_batch: u64) -> FedTrainConfig {
    tc.fault = Some(FaultPlan {
        at_batch,
        action: FaultAction::Drop,
    });
    tc
}

/// A per-cell unique checkpoint path. `BF_CHAOS_DIR` redirects the
/// files into a named directory and disables end-of-test cleanup so
/// CI can upload them as a post-mortem artifact.
fn tmp(name: &str) -> PathBuf {
    match std::env::var("BF_CHAOS_DIR") {
        Ok(dir) => {
            let _ = std::fs::create_dir_all(&dir);
            PathBuf::from(dir).join(format!("{name}.ckpt"))
        }
        Err(_) => std::env::temp_dir().join(format!("bf_chaos_{}_{name}.ckpt", std::process::id())),
    }
}

/// Delete a checkpoint file unless `BF_CHAOS_DIR` asked to keep them.
fn cleanup(path: &Path) {
    if std::env::var("BF_CHAOS_DIR").is_err() {
        let _ = std::fs::remove_file(path);
    }
}

/// Actual training rows after `DatasetSpec::scaled(row_div, 1)` —
/// `scaled` divides the catalog row count, it does not set it.
fn train_rows(row_div: usize) -> usize {
    dataset_spec("a9a").scaled(row_div, 1).train_rows
}

/// The batch the fault kills at: "random", but derived from the cell
/// name so every run of the suite reproduces. Constrained to
/// `[EVERY − 1, total − 2]` — late enough that at least one checkpoint
/// exists, early enough that recovery has work left to do.
fn kill_batch(cell: &str, total_batches: u64) -> u64 {
    let cell_seed = cell.bytes().fold(0xC4A05u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x100000001B3)
    });
    let span = total_batches - EVERY;
    EVERY - 1 + rand::rngs::StdRng::seed_from_u64(cell_seed).next_u64() % span
}

/// Everything a completed cell run produces, reduced to the
/// bit-comparable facts.
#[derive(PartialEq, Debug)]
struct CellRun {
    losses: Vec<f64>,
    metric: f64,
    /// A→B bytes per link (one entry in the two-party cells).
    bytes_a: Vec<u64>,
    /// B→A bytes per link.
    bytes_b: Vec<u64>,
    /// Exported model bytes per guest, in link order.
    models_a: Vec<Vec<u8>>,
    /// Exported Party B model bytes.
    model_b: Vec<u8>,
}

/// Duplex endpoints for one link over the chosen transport.
fn endpoints(tcp: bool) -> (Endpoint, Endpoint) {
    if !tcp {
        return bf_mpc::channel_pair();
    }
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind localhost");
    let addr = listener.local_addr().unwrap();
    let t = std::thread::spawn(move || Endpoint::tcp_connect(addr).expect("connect"));
    let b = Endpoint::tcp_accept(&listener).expect("accept");
    (t.join().expect("connect thread"), b)
}

/// A TCP link whose connect side redials and whose accept side
/// re-accepts after a drop, replaying up to 8 frames (the transport
/// suite's idiom).
fn reconnecting_endpoints() -> (Endpoint, Endpoint) {
    let listener = Arc::new(TcpListener::bind("127.0.0.1:0").expect("bind localhost"));
    let addr = listener.local_addr().unwrap();
    let policy = RetryPolicy::default();
    let t = std::thread::spawn(move || {
        (Endpoint::tcp_connect(addr).expect("connect")).with_reconnect(
            Redial::Connect(addr),
            policy,
            8,
        )
    });
    let b = (Endpoint::tcp_accept(&listener).expect("accept")).with_reconnect(
        Redial::Accept(listener),
        policy,
        8,
    );
    (t.join().expect("connect thread"), b)
}

/// One two-party run (fresh or resumed): Party A on a thread, Party B
/// on the caller's thread. Errors are returned, not panicked — the
/// chaos phase expects both parties to fail.
#[allow(clippy::type_complexity)]
fn run_two_party(
    cfg: &FedConfig,
    row_div: usize,
    tcp: bool,
    tc_a: FedTrainConfig,
    tc_b: FedTrainConfig,
) -> (TransportResult<PartyARun>, TransportResult<PartyBRun>) {
    run_two_party_over(endpoints(tcp), cfg, row_div, tc_a, tc_b)
}

/// [`run_two_party`] over the given link.
#[allow(clippy::type_complexity)]
fn run_two_party_over(
    (ep_a, ep_b): (Endpoint, Endpoint),
    cfg: &FedConfig,
    row_div: usize,
    tc_a: FedTrainConfig,
    tc_b: FedTrainConfig,
) -> (TransportResult<PartyARun>, TransportResult<PartyBRun>) {
    let ds = dataset_spec("a9a").scaled(row_div, 1);
    let (train, test) = generate(&ds, DATA_SEED);
    let train_v = vsplit(&train);
    let test_v = vsplit(&test);
    let fed = FedSpec::Glm { out: 1 };

    let cfg_a = cfg.clone();
    let fed_a = fed.clone();
    let (train_a, test_a) = (train_v.party_a.clone(), test_v.party_a.clone());
    let guest = std::thread::Builder::new()
        .name("chaos-party-a".into())
        .stack_size(16 << 20)
        .spawn(move || {
            let mut sess = Session::handshake(ep_a, cfg_a, Role::A, party_seed(Role::A, SEED))?;
            run_party_a(&mut sess, &fed_a, &tc_a, &train_a, &test_a)
        })
        .expect("spawn party A");
    let res_b = Session::handshake(ep_b, cfg.clone(), Role::B, party_seed(Role::B, SEED)).and_then(
        |mut sess| run_party_b(&mut sess, &fed, &tc_b, &train_v.party_b, &test_v.party_b),
    );
    let res_a = guest.join().expect("party A panicked");
    (res_a, res_b)
}

fn collect_two_party(a: PartyARun, b: PartyBRun) -> CellRun {
    CellRun {
        losses: b.losses,
        metric: b.test_metric,
        bytes_a: vec![a.bytes_sent],
        bytes_b: b.bytes_sent_per_link,
        models_a: vec![export_party_a(&a.model)],
        model_b: export_party_b(&b.model),
    }
}

/// The full chaos experiment for one two-party cell.
fn assert_two_party_recovery(cell: &str, cfg: FedConfig, row_div: usize, bs: usize, tcp: bool) {
    let total = (train_rows(row_div) / bs * EPOCHS) as u64;
    let kill_at = kill_batch(cell, total);
    let tc = base_tc(bs);

    // 1. Uninterrupted baseline.
    let (ra, rb) = run_two_party(&cfg, row_div, tcp, tc.clone(), tc.clone());
    let baseline = collect_two_party(ra.expect("baseline A"), rb.expect("baseline B"));
    assert_eq!(baseline.losses.len() as u64, total);

    // 2. Chaos run: checkpoints on, Party A killed after `kill_at`.
    let (path_a, path_b) = (tmp(&format!("{cell}_a")), tmp(&format!("{cell}_b")));
    let (ra, rb) = run_two_party(
        &cfg,
        row_div,
        tcp,
        with_kill(with_ckpt(tc.clone(), &path_a), kill_at),
        with_ckpt(tc.clone(), &path_b),
    );
    let err_a = ra.err().expect("A must die from the injected kill");
    assert!(
        err_a.to_string().contains(FAULT_KILL_MARKER),
        "unexpected A error: {err_a}"
    );
    let err_b = rb.err().expect("B must observe the dead peer");
    assert!(
        !err_b.to_string().contains(FAULT_KILL_MARKER),
        "B died from its own fault plan, not the peer: {err_b}"
    );

    // 3. Restart both parties from their latest checkpoints.
    let cp_a = import_checkpoint(&std::fs::read(&path_a).expect("A checkpoint file"))
        .expect("A checkpoint decodes");
    let cp_b = import_checkpoint(&std::fs::read(&path_b).expect("B checkpoint file"))
        .expect("B checkpoint decodes");
    assert_eq!(
        (cp_a.epoch, cp_a.batch),
        (cp_b.epoch, cp_b.batch),
        "the parties' latest checkpoints must sit at the same batch"
    );
    let (ra, rb) = run_two_party(
        &cfg,
        row_div,
        tcp,
        with_resume(with_ckpt(tc.clone(), &path_a), &path_a),
        with_resume(with_ckpt(tc, &path_b), &path_b),
    );
    let recovered = collect_two_party(ra.expect("resumed A"), rb.expect("resumed B"));

    // 4. Bit-identical to the baseline: curve, metric, traffic, models.
    assert_eq!(baseline, recovered, "recovery diverged from the baseline");
    cleanup(&path_a);
    cleanup(&path_b);
}

#[test]
fn two_party_plain_in_process_recovers_bit_identically() {
    assert_two_party_recovery("2p_plain_chan", FedConfig::plain(), 256, 16, false);
}

#[test]
fn two_party_plain_tcp_recovers_bit_identically() {
    assert_two_party_recovery("2p_plain_tcp", FedConfig::plain(), 256, 16, true);
}

#[test]
fn two_party_paillier_packed_in_process_recovers_bit_identically() {
    assert_two_party_recovery("2p_pail_chan", FedConfig::paillier_test(), 1024, 8, false);
}

#[test]
fn two_party_paillier_packed_tcp_recovers_bit_identically() {
    assert_two_party_recovery("2p_pail_tcp", FedConfig::paillier_test(), 1024, 8, true);
}

/// The first run that fires [`FaultAction::Drop`]: a pipelined
/// Paillier run over a reconnecting TCP link, severed by Party A after
/// the cell-seeded batch, resyncs in place — losses, test metric,
/// per-link traffic and exported models all equal the unsevered run.
#[test]
fn two_party_paillier_pipelined_reconnecting_tcp_survives_a_dropped_link() {
    let (row_div, bs) = (1024, 8);
    let cfg = FedConfig::paillier_test();
    let total = (train_rows(row_div) / bs * EPOCHS) as u64;
    let drop_at = kill_batch("2p_pail_drop", total);
    let tc = FedTrainConfig {
        mode: TrainMode::pipelined(),
        ..base_tc(bs)
    };
    let run = |tc_a: FedTrainConfig| {
        let (ra, rb) =
            run_two_party_over(reconnecting_endpoints(), &cfg, row_div, tc_a, tc.clone());
        collect_two_party(ra.expect("party A"), rb.expect("party B"))
    };
    let unsevered = run(tc.clone());
    assert_eq!(unsevered.losses.len() as u64, total);
    let severed = run(with_drop(tc.clone(), drop_at));
    assert_eq!(unsevered, severed, "a dropped link changed the run");
}

/// One M-guest run (fresh or resumed): [`run_star`] in process, its two
/// prologue halves over one localhost socket per guest for TCP. Errors
/// are returned, not panicked, and a party that fails closes its links;
/// per-guest train configs let the chaos phase kill exactly one guest.
#[allow(clippy::type_complexity)]
fn run_multi(
    cfg: &FedConfig,
    row_div: usize,
    tcp: bool,
    tcs_a: Vec<FedTrainConfig>,
    tc_b: FedTrainConfig,
) -> (Vec<TransportResult<PartyARun>>, TransportResult<PartyBRun>) {
    let m = tcs_a.len();
    let ds = dataset_spec("a9a").scaled(row_div, 1);
    let (train, test) = generate(&ds, DATA_SEED);
    let train_v = vsplit_multi(&train, m);
    let test_v = vsplit_multi(&test, m);
    let fed = FedSpec::Glm { out: 1 };
    let guests: Vec<_> = (train_v.guests.into_iter())
        .zip(test_v.guests)
        .zip(tcs_a)
        .collect();
    let guest = |((train_a, test_a), tc_a): ((Dataset, Dataset), FedTrainConfig),
                 mut sess: Session| {
        run_party_a(&mut sess, &fed, &tc_a, &train_a, &test_a)
    };
    let host = |mut sessions: Vec<Session>| {
        run_party_b(
            &mut sessions,
            &fed,
            &tc_b,
            &train_v.party_b,
            &test_v.party_b,
        )
    };
    if !tcp {
        return run_star(cfg, SEED, guests, guest, host);
    }
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind localhost");
    let addr = listener.local_addr().unwrap();
    let guest = &guest;
    std::thread::scope(|s| {
        let handles: Vec<_> = (guests.into_iter().enumerate())
            .map(|(i, g)| {
                let ep = Endpoint::tcp_connect(addr).expect("guest connect");
                s.spawn(move || guest(g, join_host(ep, cfg, i, m, SEED)?))
            })
            .collect();
        let accepted = (0..m)
            .map(|_| Endpoint::tcp_accept(&listener).expect("accept"))
            .collect();
        let res_b = accept_guests(accepted, cfg, SEED).and_then(host);
        let res_a = handles
            .into_iter()
            .map(|h| h.join().expect("guest panicked"))
            .collect();
        (res_a, res_b)
    })
}

fn collect_multi(guests: Vec<PartyARun>, b: PartyBRun) -> CellRun {
    CellRun {
        losses: b.losses,
        metric: b.test_metric,
        bytes_a: guests.iter().map(|g| g.bytes_sent).collect(),
        bytes_b: b.bytes_sent_per_link.clone(),
        models_a: guests.iter().map(|g| export_party_a(&g.model)).collect(),
        model_b: export_party_b(&b.model),
    }
}

/// The full chaos experiment for one M = 2 multi-guest cell: guest 0
/// is killed; B and guest 1 die with link errors; all three restart
/// from their checkpoints.
fn assert_multi_recovery(cell: &str, cfg: FedConfig, row_div: usize, bs: usize, tcp: bool) {
    const M: usize = 2;
    let total = (train_rows(row_div) / bs * EPOCHS) as u64;
    let kill_at = kill_batch(cell, total);
    let tc = base_tc(bs);

    // 1. Uninterrupted baseline.
    let (ras, rb) = run_multi(&cfg, row_div, tcp, vec![tc.clone(); M], tc.clone());
    let guests: Vec<PartyARun> = ras
        .into_iter()
        .map(|r| r.expect("baseline guest"))
        .collect();
    let baseline = collect_multi(guests, rb.expect("baseline B"));
    assert_eq!(baseline.losses.len() as u64, total);

    // 2. Chaos run: guest 0 killed after `kill_at`.
    let paths: Vec<PathBuf> = (0..M).map(|i| tmp(&format!("{cell}_g{i}"))).collect();
    let path_b = tmp(&format!("{cell}_b"));
    let tcs_a: Vec<FedTrainConfig> = (0..M)
        .map(|i| {
            let t = with_ckpt(tc.clone(), &paths[i]);
            if i == 0 {
                with_kill(t, kill_at)
            } else {
                t
            }
        })
        .collect();
    let (ras, rb) = run_multi(&cfg, row_div, tcp, tcs_a, with_ckpt(tc.clone(), &path_b));
    let err0 = ras[0].as_ref().err().expect("guest 0 must die");
    assert!(
        err0.to_string().contains(FAULT_KILL_MARKER),
        "unexpected guest-0 error: {err0}"
    );
    assert!(ras[1].is_err(), "guest 1 must observe the collapsed run");
    assert!(rb.is_err(), "B must observe the dead guest");

    // 3. Restart all three parties from their latest checkpoints.
    let cps_a: Vec<_> = paths
        .iter()
        .map(|p| {
            import_checkpoint(&std::fs::read(p).expect("guest checkpoint file"))
                .expect("guest checkpoint decodes")
        })
        .collect();
    let cp_b = import_checkpoint(&std::fs::read(&path_b).expect("B checkpoint file"))
        .expect("B checkpoint decodes");
    for cp in &cps_a {
        assert_eq!(
            (cp.epoch, cp.batch),
            (cp_b.epoch, cp_b.batch),
            "every party's latest checkpoint must sit at the same batch"
        );
    }
    let tcs_a: Vec<FedTrainConfig> = (0..M)
        .map(|i| with_resume(with_ckpt(tc.clone(), &paths[i]), &paths[i]))
        .collect();
    let (ras, rb) = run_multi(
        &cfg,
        row_div,
        tcp,
        tcs_a,
        with_resume(with_ckpt(tc, &path_b), &path_b),
    );
    let guests: Vec<PartyARun> = ras.into_iter().map(|r| r.expect("resumed guest")).collect();
    let recovered = collect_multi(guests, rb.expect("resumed B"));

    // 4. Bit-identical to the baseline.
    assert_eq!(baseline, recovered, "recovery diverged from the baseline");
    for p in paths.iter().chain([&path_b]) {
        cleanup(p);
    }
}

#[test]
fn multi_guest_plain_in_process_recovers_bit_identically() {
    assert_multi_recovery("m2_plain_chan", FedConfig::plain(), 256, 16, false);
}

#[test]
fn multi_guest_plain_tcp_recovers_bit_identically() {
    assert_multi_recovery("m2_plain_tcp", FedConfig::plain(), 256, 16, true);
}

#[test]
fn multi_guest_paillier_packed_in_process_recovers_bit_identically() {
    assert_multi_recovery("m2_pail_chan", FedConfig::paillier_test(), 1024, 8, false);
}

#[test]
fn multi_guest_paillier_packed_tcp_recovers_bit_identically() {
    assert_multi_recovery("m2_pail_tcp", FedConfig::paillier_test(), 1024, 8, true);
}

/// Checkpoint capture is wire-silent: an uninterrupted run with
/// checkpointing enabled is bit-identical — losses, metric, traffic
/// totals, trained models — to one without, and the checkpoint files
/// it leaves behind decode to the configured cadence position.
fn assert_checkpointing_is_wire_silent(cell: &str, cfg: FedConfig, row_div: usize, bs: usize) {
    let tc = base_tc(bs);
    let (ra, rb) = run_two_party(&cfg, row_div, false, tc.clone(), tc.clone());
    let plainest = collect_two_party(ra.expect("A"), rb.expect("B"));

    let (path_a, path_b) = (tmp(&format!("{cell}_a")), tmp(&format!("{cell}_b")));
    let (ra, rb) = run_two_party(
        &cfg,
        row_div,
        false,
        with_ckpt(tc.clone(), &path_a),
        with_ckpt(tc, &path_b),
    );
    let checkpointed = collect_two_party(ra.expect("A"), rb.expect("B"));
    assert_eq!(
        plainest, checkpointed,
        "enabling checkpoints changed the run (traffic or math)"
    );

    // The files exist, decode, and sit at the last cadence boundary.
    let total = (train_rows(row_div) / bs * EPOCHS) as u64;
    let last = total - total % EVERY;
    let bpe = (train_rows(row_div) / bs) as u64;
    let cp_a = import_checkpoint(&std::fs::read(&path_a).unwrap()).unwrap();
    let cp_b = import_checkpoint(&std::fs::read(&path_b).unwrap()).unwrap();
    for (epoch, batch) in [(cp_a.epoch, cp_a.batch), (cp_b.epoch, cp_b.batch)] {
        assert_eq!(epoch * bpe + batch, last, "checkpoint not at the cadence");
    }
    assert_eq!(cp_b.losses.len() as u64, last);
    cleanup(&path_a);
    cleanup(&path_b);
}

#[test]
fn plain_checkpoint_capture_adds_no_wire_traffic() {
    assert_checkpointing_is_wire_silent("silent_plain", FedConfig::plain(), 256, 16);
}

#[test]
fn paillier_checkpoint_capture_adds_no_wire_traffic() {
    assert_checkpointing_is_wire_silent("silent_pail", FedConfig::paillier_test(), 1024, 8);
}

/// Overlap fraction of the PSI chaos cells: the aligned run trains on
/// half the generated rows.
const OVERLAP: f64 = 0.5;

/// One PSI-aligned two-party run (fresh or resumed) over a misaligned
/// split: shuffled supersets plus ID columns in, alignment + run out.
#[allow(clippy::type_complexity)]
fn run_two_party_aligned(
    cfg: &FedConfig,
    row_div: usize,
    tcp: bool,
    mut tc_a: FedTrainConfig,
    mut tc_b: FedTrainConfig,
) -> (
    TransportResult<(Alignment, PartyARun)>,
    TransportResult<(Alignment, PartyBRun)>,
) {
    let ds = dataset_spec("a9a").scaled(row_div, 1);
    let (train, test) = generate(&ds, DATA_SEED);
    let mis = vsplit_misaligned(&train, OVERLAP, DATA_SEED);
    let test_v = vsplit(&test);
    let salt = psi_salt(SEED);
    let fed = FedSpec::Glm { out: 1 };

    let (ep_a, ep_b) = endpoints(tcp);
    let cfg_a = cfg.clone();
    let fed_a = fed.clone();
    let train_a = mis.party_a.data.clone();
    tc_a.align = Some(AlignInput {
        ids: mis.party_a.ids.clone(),
        salt,
    });
    tc_b.align = Some(AlignInput {
        ids: mis.party_b.ids.clone(),
        salt,
    });
    let test_a = test_v.party_a.clone();
    let guest = std::thread::Builder::new()
        .name("chaos-aligned-a".into())
        .stack_size(16 << 20)
        .spawn(move || {
            let mut sess = Session::handshake(ep_a, cfg_a, Role::A, party_seed(Role::A, SEED))?;
            let mut run = run_party_a(&mut sess, &fed_a, &tc_a, &train_a, &test_a)?;
            Ok((run.alignment.take().expect("A ran unaligned"), run))
        })
        .expect("spawn party A");
    let res_b = Session::handshake(ep_b, cfg.clone(), Role::B, party_seed(Role::B, SEED)).and_then(
        |mut sess| {
            let mut run = run_party_b(&mut sess, &fed, &tc_b, &mis.party_b.data, &test_v.party_b)?;
            Ok((run.alignment.take().expect("B ran unaligned"), run))
        },
    );
    let res_a = guest.join().expect("party A panicked");
    (res_a, res_b)
}

/// The chaos experiment through the PSI phase: kill Party A mid-run of
/// a PSI-aligned training, restart from the aligned checkpoints, and
/// demand bit-identity with the uninterrupted aligned baseline —
/// traffic totals included, which is the no-double-count contract:
/// the resumed run rebuilds its selection from the checkpointed
/// cursor with **zero** wire traffic, while `restore_cursor` preloads
/// totals that already contain the original PSI bytes exactly once.
fn assert_aligned_recovery(cell: &str, cfg: FedConfig, row_div: usize, bs: usize, tcp: bool) {
    let aligned_rows = (OVERLAP * train_rows(row_div) as f64).round() as usize;
    let total = (aligned_rows / bs * EPOCHS) as u64;
    let kill_at = kill_batch(cell, total);
    let tc = base_tc(bs);

    // 1. Uninterrupted aligned baseline (totals include the PSI phase).
    let (ra, rb) = run_two_party_aligned(&cfg, row_div, tcp, tc.clone(), tc.clone());
    let (al_a, a) = ra.expect("baseline A");
    let (al_b, b) = rb.expect("baseline B");
    assert!(
        al_a.psi_bytes_per_link.iter().sum::<u64>() > 0
            && al_b.psi_bytes_per_link.iter().sum::<u64>() > 0
    );
    let baseline = collect_two_party(a, b);
    assert_eq!(baseline.losses.len() as u64, total);

    // 2. Chaos run: checkpoints on, Party A killed after `kill_at`.
    let (path_a, path_b) = (tmp(&format!("{cell}_a")), tmp(&format!("{cell}_b")));
    let (ra, rb) = run_two_party_aligned(
        &cfg,
        row_div,
        tcp,
        with_kill(with_ckpt(tc.clone(), &path_a), kill_at),
        with_ckpt(tc.clone(), &path_b),
    );
    let err_a = ra.err().expect("A must die from the injected kill");
    assert!(
        err_a.to_string().contains(FAULT_KILL_MARKER),
        "unexpected A error: {err_a}"
    );
    assert!(rb.is_err(), "B must observe the dead peer");

    // 3. The checkpoints carry the alignment cursor (the optional
    //    section of persist kind 4), pointing at exactly the
    //    intersection the run selected.
    let cp_a = import_checkpoint(&std::fs::read(&path_a).expect("A checkpoint file"))
        .expect("A checkpoint decodes");
    let cp_b = import_checkpoint(&std::fs::read(&path_b).expect("B checkpoint file"))
        .expect("B checkpoint decodes");
    for cur in [
        cp_a.aligned
            .as_ref()
            .expect("A checkpoint carries no cursor"),
        cp_b.aligned
            .as_ref()
            .expect("B checkpoint carries no cursor"),
    ] {
        assert_eq!(cur.salt, psi_salt(SEED));
        assert_eq!(cur.ids, al_a.ids);
    }
    assert_eq!(
        (cp_a.epoch, cp_a.batch),
        (cp_b.epoch, cp_b.batch),
        "the parties' latest checkpoints must sit at the same batch"
    );

    // 4. Restart both parties; the realignment must be wire-free.
    let (ra, rb) = run_two_party_aligned(
        &cfg,
        row_div,
        tcp,
        with_resume(with_ckpt(tc.clone(), &path_a), &path_a),
        with_resume(with_ckpt(tc, &path_b), &path_b),
    );
    let (ral_a, a) = ra.expect("resumed A");
    let (ral_b, b) = rb.expect("resumed B");
    assert_eq!(ral_a.ids, al_a.ids, "resumed A re-selected a different set");
    assert_eq!(ral_b.ids, al_b.ids, "resumed B re-selected a different set");
    assert_eq!(
        (
            ral_a.psi_bytes_per_link.iter().sum::<u64>(),
            ral_b.psi_bytes_per_link.iter().sum::<u64>()
        ),
        (0, 0),
        "cursor-based realignment must cost zero wire bytes"
    );
    let recovered = collect_two_party(a, b);

    // 5. Bit-identical to the aligned baseline — the equal traffic
    //    totals prove the PSI bytes were counted exactly once.
    assert_eq!(baseline, recovered, "recovery diverged from the baseline");
    cleanup(&path_a);
    cleanup(&path_b);
}

#[test]
fn psi_aligned_plain_in_process_recovers_bit_identically() {
    assert_aligned_recovery("2p_ali_plain_chan", FedConfig::plain(), 256, 16, false);
}

#[test]
fn psi_aligned_paillier_packed_tcp_recovers_bit_identically() {
    assert_aligned_recovery("2p_ali_pail_tcp", FedConfig::paillier_test(), 1024, 8, true);
}
