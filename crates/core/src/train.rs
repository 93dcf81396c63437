//! Federated training and inference runtime.
//!
//! Two training entry points, one per role: [`run_party_a`] drives a
//! guest over its one [`Session`], [`run_party_b`] drives the host over
//! its guest links — `&mut sess` for the two-party job, `&mut sessions`
//! for `M` guests (paper Appendix C: every guest runs the same
//! routines, so the `M`-guest host is the two-party host run once per
//! link). Both work over any transport, in-process or TCP (see
//! `examples/tcp_federated_lr.rs` and `examples/multiparty_lr.rs` for
//! the one-process-per-party deployments). Every party derives the
//! identical mini-batch schedule from a shared seed, so no control
//! messages are needed: the protocols' own message flow is the only
//! cross-party traffic.
//!
//! What kind of run it is rides on [`FedTrainConfig`], not on the
//! function name:
//!
//! | field | `None` (default) | `Some(_)` |
//! |---|---|---|
//! | [`FedTrainConfig::align`] | the rows are pre-aligned | PSI over the sample-ID columns first ([`crate::align`]), then train on the intersection |
//! | [`FedTrainConfig::resume`] | initialise a fresh model | continue from this checkpoint blob on the bit-identical loss curve |
//!
//! [`FedTrainConfig::mode`] selects the scheduling engine: the
//! lock-step loop ([`TrainMode::Sync`]) or the pipelined engine
//! ([`TrainMode::Pipelined`]) which queue-decouples the transport and
//! double-buffers batch preparation — bit-identical results, less
//! wall-clock (see [`crate::engine`] for the determinism contract).
//!
//! [`train_federated`] (two threads) and [`train_federated_multi`]
//! (`M + 1` threads) are the single-machine harnesses. They hand every
//! party the same [`FedTrainConfig`]; a run whose parties differ in
//! their per-party fields (`checkpoint`, `fault`, `resume`, `align`)
//! drives the two entry points directly, as `tests/chaos_parity.rs` and
//! `tests/alignment_parity.rs` do. `tests/multiparty_parity.rs` proves
//! the equivalence contract (M-guest ≙ concatenated single-A, `M = 1` ≡
//! two-party bit for bit, transports byte-equal).

use std::path::{Path, PathBuf};
use std::sync::Arc;

use bf_ml::data::{BatchIter, Dataset};
use bf_ml::train::metric_from_logits;
use bf_mpc::fault::{FaultAction, FaultPlan};
use bf_mpc::transport::{Endpoint, TransportError, TransportResult};
use bf_tensor::Dense;
use bf_util::Stopwatch;

use crate::align::{align_guest, align_host, AlignInput, Alignment};
use crate::config::FedConfig;
use crate::engine::{run_epoch, TrainMode};
use crate::models::{FedSpec, PartyAModel, PartyBModel};
use crate::multiparty::{collect_guests, send_hello};
use crate::persist::{self, AlignCursor, PersistError};
use crate::session::{multi_party_seed, run_pair, Role, Session};

/// Mid-epoch checkpoint cadence: both parties must configure the same
/// `every_batches` (checkpoints are purely local — zero wire traffic —
/// so the cadence is the only thing keeping the two parties' snapshots
/// at the same batch position).
#[derive(Clone, Debug)]
pub struct CheckpointCadence {
    /// Write a checkpoint after every this-many completed batches,
    /// counted run-wide across epochs (values < 1 are treated as 1).
    pub every_batches: u64,
    /// Where the latest checkpoint blob lands. Written atomically
    /// (tmp + rename), so a crash mid-write never corrupts the
    /// previous checkpoint.
    pub path: PathBuf,
}

/// Marker embedded in the [`TransportError::Setup`] message a
/// [`FaultAction::Kill`] surfaces as — the chaos harness matches on it
/// to tell an injected kill from a real transport failure.
pub const FAULT_KILL_MARKER: &str = "fault injection: killed";

/// Training-loop options for one party's federated run.
#[derive(Clone, Debug, Default)]
pub struct FedTrainConfig {
    /// Epoch / batch / shuffle parameters (shared with the plaintext
    /// trainer so runs are comparable).
    pub base: bf_ml::TrainConfig,
    /// Capture Party A's `U_A` after every epoch (used by the Figure 9
    /// activation-attack harness).
    pub snapshot_u_a: bool,
    /// Scheduling engine (defaults to the lock-step [`TrainMode::Sync`];
    /// both parties may choose independently — the modes are pure
    /// wall-clock scheduling and never change math or wire content).
    pub mode: TrainMode,
    /// Mid-epoch checkpoint cadence; `None` (the default) disables
    /// checkpointing. Checkpoint capture is local-only — it never adds
    /// a frame to the wire (`tests/chaos_parity.rs` asserts traffic
    /// parity with checkpointing on and off).
    pub checkpoint: Option<CheckpointCadence>,
    /// Scripted fault injection for the chaos harness (`None` runs
    /// fault-free; [`FaultPlan::from_env`] reads the `BF_FAULT` knob).
    pub fault: Option<FaultPlan>,
    /// Sample alignment: `Some` runs the PSI phase over this party's
    /// sample-ID column right after the handshake and trains on the
    /// intersection in canonical order; checkpoints then carry the
    /// alignment cursor. `None` (the default) takes the train rows as
    /// already aligned. Every party of a run must agree on which it is.
    /// The test split must already be aligned across the parties.
    pub align: Option<AlignInput>,
    /// Resume: `Some` is this party's latest checkpoint blob (BFMD kind
    /// 4 for a guest, 5 for a host, as [`CheckpointCadence::path`]
    /// holds it). The session(s) must be freshly handshaken with the
    /// *same* `(cfg, role, seed)` as the original run, so keys and
    /// streams regenerate identically; the run restores the determinism
    /// cursor(s), fast-forwards the batch schedule and lands on the
    /// bit-identical loss curve. A checkpoint of an aligned run needs
    /// `align` set as well: the selection is rebuilt from the
    /// checkpointed ID list against the local column with **zero** wire
    /// traffic, so the restored traffic totals (which already include
    /// the original PSI phase) stay exact.
    pub resume: Option<Vec<u8>>,
}

/// Atomic checkpoint write: to a `.tmp` sibling, then rename over the
/// target, so the latest complete checkpoint is always intact.
fn write_checkpoint(path: &Path, bytes: &[u8]) -> TransportResult<()> {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, bytes)
        .and_then(|()| std::fs::rename(&tmp, path))
        .map_err(|e| {
            TransportError::Setup(format!(
                "checkpoint write to {} failed: {e}",
                path.display()
            ))
        })
}

/// Fire the configured fault if it is scheduled after the run-wide
/// batch that just completed. Runs *after* the cadence checkpoint, so
/// a kill never outruns the snapshot that recovery needs.
fn apply_fault<'a>(
    fault: Option<FaultPlan>,
    batch: u64,
    eps: impl Iterator<Item = &'a Endpoint>,
) -> TransportResult<()> {
    let Some(plan) = fault else { return Ok(()) };
    if !plan.fires_after(batch) {
        return Ok(());
    }
    match plan.action {
        FaultAction::Kill => Err(TransportError::Setup(format!(
            "{FAULT_KILL_MARKER} after batch {batch}"
        ))),
        FaultAction::Drop => {
            for ep in eps {
                ep.sever();
            }
            Ok(())
        }
        FaultAction::Delay(d) => {
            std::thread::sleep(d);
            Ok(())
        }
    }
}

/// A checkpoint blob the importer refused, as the run's setup error.
fn bad_checkpoint(e: PersistError) -> TransportError {
    TransportError::Setup(format!("cannot resume from the checkpoint: {e}"))
}

/// Settle the run's alignment. `resumed` is `None` on a fresh run and
/// the checkpoint's alignment section on a resumed one: a fresh aligned
/// run pays for `psi` on the wire; a resumed one rebuilds the selection
/// from the checkpointed cursor, wire-free.
fn resolve_alignment(
    input: Option<&AlignInput>,
    resumed: Option<Option<&AlignCursor>>,
    psi: impl FnOnce(&AlignInput) -> TransportResult<Alignment>,
) -> TransportResult<Option<Alignment>> {
    match (input, resumed) {
        (None, None | Some(None)) => Ok(None),
        (Some(input), None) => psi(input).map(Some),
        (Some(input), Some(Some(cur))) => Alignment::from_cursor(cur, &input.ids).map(Some),
        (Some(_), Some(None)) => Err(TransportError::Setup(
            "the run is configured to align, but its checkpoint is not PSI-aligned".into(),
        )),
        (None, Some(Some(_))) => Err(TransportError::Setup(
            "checkpoint is PSI-aligned; set `align` to the local sample-ID column to resume it"
                .into(),
        )),
    }
}

/// Outcome of a federated training run.
pub struct FedReport {
    /// Per-mini-batch training loss (Party B's view).
    pub losses: Vec<f64>,
    /// Test logits from the final federated inference pass.
    pub test_logits: Dense,
    /// Test metric (AUC for binary, accuracy for multi-class).
    pub test_metric: f64,
    /// Wall-clock seconds spent in the training loop.
    pub train_secs: f64,
    /// Bytes sent A→B during the whole run.
    pub bytes_a_to_b: u64,
    /// Bytes sent B→A during the whole run.
    pub bytes_b_to_a: u64,
    /// Party A's `U_A` snapshots per epoch, if requested.
    pub u_a_snapshots: Vec<Dense>,
    /// Party B's wall-clock per pipeline stage, `(label, secs)`.
    pub stage_secs: Vec<(&'static str, f64)>,
}

/// Everything a two-party federated run returns: the report plus both
/// trained model halves (shares inspectable via their getters — used by
/// the privacy experiments).
pub struct FedOutcome {
    /// Metrics and curves.
    pub report: FedReport,
    /// Party A's trained half.
    pub party_a: PartyAModel,
    /// Party B's trained half (includes the top model).
    pub party_b: PartyBModel,
}

/// Sequential evaluation batches covering every row (the final short
/// batch is kept — federated inference handles any batch size).
fn eval_batches(n: usize, bs: usize) -> Vec<Vec<usize>> {
    (0..n)
        .collect::<Vec<_>>()
        .chunks(bs)
        .map(|c| c.to_vec())
        .collect()
}

/// Train a two-party federated model and run federated inference on the
/// test split. `lr`/`momentum` are taken from `cfg` (the protocol
/// applies them inside the secret-shared updates); `tc.base.lr` is
/// ignored. Both parties get `tc` as it is (see the module docs).
pub fn train_federated(
    spec: &FedSpec,
    cfg: &FedConfig,
    tc: &FedTrainConfig,
    train_a: Dataset,
    train_b: Dataset,
    test_a: Dataset,
    test_b: Dataset,
    seed: u64,
) -> FedOutcome {
    let spec_a = spec.clone();
    let tc_a = tc.clone();

    let (party_a_res, party_b_res) = run_pair(
        cfg,
        seed,
        move |mut sess| {
            run_party_a(&mut sess, &spec_a, &tc_a, &train_a, &test_a).expect("party A transport")
        },
        |mut sess| run_party_b(&mut sess, spec, tc, &train_b, &test_b).expect("party B transport"),
    );
    FedOutcome {
        report: FedReport {
            losses: party_b_res.losses,
            test_logits: party_b_res.test_logits,
            test_metric: party_b_res.test_metric,
            train_secs: party_b_res.train_secs,
            bytes_a_to_b: party_a_res.bytes_sent,
            bytes_b_to_a: party_b_res.bytes_sent_per_link[0],
            u_a_snapshots: party_a_res.u_a_snapshots,
            stage_secs: party_b_res.stage_secs,
        },
        party_a: party_a_res.model,
        party_b: party_b_res.model,
    }
}

/// What [`run_party_a`] produces.
pub struct PartyARun {
    /// The trained Party A model half.
    pub model: PartyAModel,
    /// `U_A` snapshots per epoch, if requested.
    pub u_a_snapshots: Vec<Dense>,
    /// Bytes this party sent over the whole run.
    pub bytes_sent: u64,
    /// Wall-clock per pipeline stage, `(label, secs)` (see
    /// [`crate::engine::Stage`]).
    pub stage_secs: Vec<(&'static str, f64)>,
    /// The guest-side alignment of an aligned run (`psi_bytes_sent` =
    /// PSI bytes A→B; 0 when it was rebuilt from a checkpoint).
    pub alignment: Option<Alignment>,
}

/// What [`run_party_b`] produces.
pub struct PartyBRun {
    /// The trained Party B model half (includes the top model).
    pub model: PartyBModel,
    /// Per-mini-batch training loss.
    pub losses: Vec<f64>,
    /// Test logits from the final federated inference pass.
    pub test_logits: Dense,
    /// Test metric (AUC for binary, accuracy for multi-class).
    pub test_metric: f64,
    /// Wall-clock seconds spent in the training loop.
    pub train_secs: f64,
    /// Bytes this party sent to each guest over the whole run, per
    /// link (B→A(i)).
    pub bytes_sent_per_link: Vec<u64>,
    /// Wall-clock per pipeline stage, `(label, secs)`, over all links —
    /// the sessions share one accumulator (see
    /// [`crate::engine::Stage`]).
    pub stage_secs: Vec<(&'static str, f64)>,
    /// The host-side alignment of an aligned run: the global
    /// intersection, with the PSI bytes B→A(i) per link.
    pub alignment: Option<Alignment>,
}

/// Switch the session's transport into pipelined mode if the training
/// mode calls for it (idempotent; the handshake already happened over
/// the blocking transport, which is fine — mode changes scheduling
/// only).
fn apply_mode(sess: &mut Session, mode: TrainMode) {
    if let TrainMode::Pipelined { queue_depth, .. } = mode {
        sess.ep.make_pipelined(queue_depth);
    }
}

/// Party A's side of a full training + federated-inference run: align
/// first if [`FedTrainConfig::align`] says so, start from
/// [`FedTrainConfig::resume`] if there is one, train to the end, then
/// run federated inference over `test`. Works over any transport; a
/// transport failure aborts the loop cleanly with the error instead of
/// crashing the process.
pub fn run_party_a(
    sess: &mut Session,
    spec: &FedSpec,
    tc: &FedTrainConfig,
    train: &Dataset,
    test: &Dataset,
) -> TransportResult<PartyARun> {
    let cp = (tc.resume.as_deref().map(persist::import_checkpoint_a))
        .transpose()
        .map_err(bad_checkpoint)?;
    let alignment = resolve_alignment(
        tc.align.as_ref(),
        cp.as_ref().map(|cp| cp.aligned.as_ref()),
        |input| align_guest(sess, &input.ids),
    )?;
    apply_mode(sess, tc.mode);
    let selected = alignment.as_ref().map(|a| a.select(train));
    let train = selected.as_ref().unwrap_or(train);
    let (mut model, start_epoch, start_batch) = match cp {
        Some(cp) => {
            sess.restore_cursor(&cp.link);
            (cp.model, cp.epoch, cp.batch)
        }
        None => (PartyAModel::init(sess, spec, train)?, 0, 0),
    };
    let aligned = alignment.as_ref().map(Alignment::cursor);

    let bpe = BatchIter::new(train.rows(), tc.base.batch_size, 0).batches_per_epoch() as u64;
    let mut snapshots = Vec::new();
    let mut global = start_epoch * bpe + start_batch;
    for epoch in (start_epoch as usize)..tc.base.epochs {
        let skip = if epoch as u64 == start_epoch {
            start_batch as usize
        } else {
            0
        };
        run_epoch(
            tc.mode,
            train,
            tc.base.batch_size,
            tc.base.seed ^ epoch as u64,
            skip,
            |batch| {
                model.forward(sess, &batch, true)?;
                model.backward(sess)?;
                if let Some(cad) = &tc.checkpoint {
                    if (global + 1) % cad.every_batches.max(1) == 0 {
                        let blob = persist::export_checkpoint_a(
                            epoch as u64,
                            global % bpe + 1,
                            &sess.capture_cursor(),
                            aligned.as_ref(),
                            &model,
                        );
                        write_checkpoint(&cad.path, &blob)?;
                    }
                }
                apply_fault(tc.fault, global, std::iter::once(&sess.ep))?;
                global += 1;
                TransportResult::Ok(())
            },
        )?;
        if tc.snapshot_u_a {
            if let Some(mm) = model.matmul() {
                snapshots.push(mm.u_own().clone());
            }
        }
    }
    // Federated inference over the test split.
    for idx in eval_batches(test.rows(), tc.base.batch_size) {
        let batch = test.select(&idx);
        model.forward(sess, &batch, false)?;
    }
    Ok(PartyARun {
        model,
        u_a_snapshots: snapshots,
        bytes_sent: sess.ep.stats().bytes(),
        stage_secs: sess.stages.snapshot(),
        alignment,
    })
}

/// Party B's side of a full training + federated-inference run (the
/// label holder: computes losses, drives the top model, reports the
/// test metric) over its guest links — `&mut sess` for one guest,
/// `&mut sessions` (link order) for `M`; each guest runs
/// [`run_party_a`]. Aligns first if [`FedTrainConfig::align`] says so
/// (one global intersection, host ∩ every guest) and starts from
/// [`FedTrainConfig::resume`] if there is one; a checkpoint whose link
/// count is not the number of sessions supplied is a
/// [`TransportError::Setup`], as is an empty slice.
///
/// All links share one stage-time accumulator, and in pipelined mode
/// every link gets its own writer/reader (per-guest prefetch) from
/// [`bf_mpc::Endpoint::make_pipelined`].
pub fn run_party_b<L: AsMut<[Session]> + ?Sized>(
    links: &mut L,
    spec: &FedSpec,
    tc: &FedTrainConfig,
    train: &Dataset,
    test: &Dataset,
) -> TransportResult<PartyBRun> {
    let links = links.as_mut();
    if links.is_empty() {
        return Err(TransportError::Setup(
            "run_party_b needs at least one guest session (M = 0)".into(),
        ));
    }
    let cp = (tc.resume.as_deref().map(persist::import_checkpoint_b))
        .transpose()
        .map_err(bad_checkpoint)?;
    if let Some(cp) = cp.as_ref().filter(|cp| cp.links.len() != links.len()) {
        return Err(TransportError::Setup(format!(
            "checkpoint has {} link cursors but {} sessions were supplied",
            cp.links.len(),
            links.len()
        )));
    }
    // One wall-clock accumulator across every link: the stage table
    // reports the B process, not one link of it.
    let stages = Arc::clone(&links[0].stages);
    for sess in links.iter_mut().skip(1) {
        sess.stages = Arc::clone(&stages);
    }
    let alignment = resolve_alignment(
        tc.align.as_ref(),
        cp.as_ref().map(|cp| cp.aligned.as_ref()),
        |input| align_host(links, input.salt, &input.ids),
    )?;
    for sess in links.iter_mut() {
        apply_mode(sess, tc.mode);
    }
    let selected = alignment.as_ref().map(|a| a.select(train));
    let train = selected.as_ref().unwrap_or(train);
    let (mut model, mut losses, start_epoch, start_batch) = match cp {
        Some(cp) => {
            for (sess, cursor) in links.iter_mut().zip(&cp.links) {
                sess.restore_cursor(cursor);
            }
            (cp.model, cp.losses, cp.epoch, cp.batch)
        }
        None => (PartyBModel::init(links, spec, train)?, Vec::new(), 0, 0),
    };
    let aligned = alignment.as_ref().map(Alignment::cursor);

    let bpe = BatchIter::new(train.rows(), tc.base.batch_size, 0).batches_per_epoch() as u64;
    let mut global = start_epoch * bpe + start_batch;
    let mut sw = Stopwatch::new();
    sw.start();
    for epoch in (start_epoch as usize)..tc.base.epochs {
        let skip = if epoch as u64 == start_epoch {
            start_batch as usize
        } else {
            0
        };
        run_epoch(
            tc.mode,
            train,
            tc.base.batch_size,
            tc.base.seed ^ epoch as u64,
            skip,
            |batch| {
                losses.push(model.train_batch(links, &batch)?);
                if let Some(cad) = &tc.checkpoint {
                    if (global + 1) % cad.every_batches.max(1) == 0 {
                        let cursors: Vec<_> = links.iter().map(Session::capture_cursor).collect();
                        let blob = persist::export_checkpoint_b(
                            epoch as u64,
                            global % bpe + 1,
                            &cursors,
                            aligned.as_ref(),
                            &losses,
                            &model,
                        );
                        write_checkpoint(&cad.path, &blob)?;
                    }
                }
                apply_fault(tc.fault, global, links.iter().map(|s| &s.ep))?;
                global += 1;
                TransportResult::Ok(())
            },
        )?;
    }
    sw.stop();

    // Federated inference.
    let mut logit_rows: Vec<f64> = Vec::new();
    let out = model.out_dim();
    for idx in eval_batches(test.rows(), tc.base.batch_size) {
        let batch = test.select(&idx);
        let logits = model.predict_batch(links, &batch)?;
        logit_rows.extend_from_slice(logits.data());
    }
    let test_logits = Dense::from_vec(test.rows(), out, logit_rows);
    let labels = test.labels.as_ref().expect("test labels at Party B");
    let metric = metric_from_logits(&test_logits, labels);
    Ok(PartyBRun {
        model,
        losses,
        test_logits,
        test_metric: metric,
        train_secs: sw.secs(),
        bytes_sent_per_link: links.iter().map(|s| s.ep.stats().bytes()).collect(),
        stage_secs: stages.snapshot(),
        alignment,
    })
}

/// Train an `M`-guest federated model in process: one thread per guest
/// (each running [`run_party_a`] over its own channel pair, exactly as
/// a separate guest process would over TCP), Party B on the caller's
/// thread running [`run_party_b`] over the `M` links. `guests_train[i]`
/// / `guests_test[i]` are the `i`-th guest's vertical slices (see
/// `bf_datagen::vsplit_multi`). Returns every guest's run, in link
/// order, and the host's; every party gets `tc` as it is (see the
/// module docs).
///
/// Every guest sends the [`bf_mpc::Msg::Hello`] link announcement
/// before its handshake — the same wire prologue as the TCP
/// deployment — so per-link traffic accounting is backend-independent.
///
/// # Panics
///
/// Panics if `guests_train` is empty or the train/test guest counts
/// differ (harness misuse), and on transport failure — in-process
/// channels cannot fail mid-run.
pub fn train_federated_multi(
    spec: &FedSpec,
    cfg: &FedConfig,
    tc: &FedTrainConfig,
    guests_train: Vec<Dataset>,
    train_b: Dataset,
    guests_test: Vec<Dataset>,
    test_b: Dataset,
    seed: u64,
) -> (Vec<PartyARun>, PartyBRun) {
    let m = guests_train.len();
    assert!(m >= 1, "train_federated_multi needs at least one guest");
    assert_eq!(m, guests_test.len(), "train/test guest slice counts differ");
    let mut host_eps = Vec::with_capacity(m);
    let mut handles = Vec::with_capacity(m);
    for (i, (train_a, test_a)) in guests_train.into_iter().zip(guests_test).enumerate() {
        let (ep_a, ep_b) = bf_mpc::channel_pair();
        host_eps.push(ep_b);
        let cfg_a = cfg.clone();
        let spec_a = spec.clone();
        let tc_a = tc.clone();
        handles.push(
            std::thread::Builder::new()
                .name(format!("guest-{i}"))
                .stack_size(16 << 20)
                .spawn(move || {
                    send_hello(&ep_a, i, m).expect("guest hello");
                    let mut sess = Session::handshake(
                        ep_a,
                        cfg_a,
                        Role::A,
                        multi_party_seed(Role::A, i, seed),
                    )
                    .expect("guest handshake");
                    run_party_a(&mut sess, &spec_a, &tc_a, &train_a, &test_a)
                        .expect("guest transport")
                })
                .expect("spawn guest"),
        );
    }
    let ordered = collect_guests(host_eps, m).expect("guest fan-in");
    let mut sessions: Vec<Session> = ordered
        .into_iter()
        .enumerate()
        .map(|(i, ep)| {
            Session::handshake(ep, cfg.clone(), Role::B, multi_party_seed(Role::B, i, seed))
                .expect("host handshake")
        })
        .collect();
    let party_b =
        run_party_b(&mut sessions, spec, tc, &train_b, &test_b).expect("party B transport");
    let guests = handles
        .into_iter()
        .map(|h| h.join().expect("guest panicked"))
        .collect();
    (guests, party_b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bf_datagen::{generate, spec as dataset_spec, vsplit};
    use rand::SeedableRng;

    #[test]
    fn federated_lr_learns_and_beats_party_b_only() {
        let ds_spec = dataset_spec("a9a").scaled(50, 1);
        let (train_ds, test_ds) = generate(&ds_spec, 42);
        let train_v = vsplit(&train_ds);
        let test_v = vsplit(&test_ds);

        let cfg = FedConfig::plain();
        let tc = FedTrainConfig {
            base: bf_ml::TrainConfig {
                epochs: 8,
                ..Default::default()
            },
            snapshot_u_a: false,
            ..Default::default()
        };
        let outcome = train_federated(
            &FedSpec::Glm { out: 1 },
            &cfg,
            &tc,
            train_v.party_a.clone(),
            train_v.party_b.clone(),
            test_v.party_a.clone(),
            test_v.party_b.clone(),
            7,
        );
        let fed_auc = outcome.report.test_metric;

        // NonFed-Party B baseline.
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let mut pb = bf_ml::GlmModel::new(&mut rng, train_v.party_b.num_dim(), 1);
        let base_cfg = bf_ml::TrainConfig {
            epochs: 8,
            ..Default::default()
        };
        let pb_report = bf_ml::train(&mut pb, &train_v.party_b, &test_v.party_b, &base_cfg);

        assert!(fed_auc > 0.75, "federated AUC {fed_auc}");
        assert!(
            fed_auc > pb_report.test_metric + 0.01,
            "federated {fed_auc} should beat Party-B-only {}",
            pb_report.test_metric
        );
        // Loss decreased.
        let l = &outcome.report.losses;
        assert!(l.last().unwrap() < &l[0]);
        // Traffic was recorded in both directions.
        assert!(outcome.report.bytes_a_to_b > 0);
        assert!(outcome.report.bytes_b_to_a > 0);
    }

    #[test]
    fn single_guest_multi_run_is_bit_identical_to_two_party() {
        // The two harnesses at unit-test scale: with M = 1 the hello
        // fan-in and per-link seeds must reproduce the two-party run
        // *bit for bit* — same losses, same metric, same traffic (the
        // guest's extra Hello prologue is the only wire difference).
        // The full matrix lives in tests/multiparty_parity.rs.
        let ds_spec = dataset_spec("a9a").scaled(48, 1);
        let (train_ds, test_ds) = generate(&ds_spec, 23);
        let train_v = vsplit(&train_ds);
        let test_v = vsplit(&test_ds);
        let cfg = FedConfig::plain();
        let tc = FedTrainConfig {
            base: bf_ml::TrainConfig {
                epochs: 2,
                batch_size: 16,
                ..Default::default()
            },
            snapshot_u_a: false,
            ..Default::default()
        };
        let seed = 77;
        let two = train_federated(
            &FedSpec::Glm { out: 1 },
            &cfg,
            &tc,
            train_v.party_a.clone(),
            train_v.party_b.clone(),
            test_v.party_a.clone(),
            test_v.party_b.clone(),
            seed,
        );
        let (guests, multi) = train_federated_multi(
            &FedSpec::Glm { out: 1 },
            &cfg,
            &tc,
            vec![train_v.party_a.clone()],
            train_v.party_b.clone(),
            vec![test_v.party_a.clone()],
            test_v.party_b.clone(),
            seed,
        );
        assert_eq!(two.report.losses, multi.losses);
        assert_eq!(two.report.test_metric, multi.test_metric);
        assert_eq!(multi.bytes_sent_per_link, vec![two.report.bytes_b_to_a]);
        let hello = bf_mpc::Msg::Hello { index: 0, total: 1 }.wire_size() as u64;
        assert_eq!(guests[0].bytes_sent, two.report.bytes_a_to_b + hello);
        // The trained shares agree too, on both sides of the link.
        let mm_two = two.party_b.matmul().unwrap();
        let mm_multi = multi.model.matmul().unwrap();
        assert_eq!(mm_two.u_own().data(), mm_multi.u_own().data());
        assert_eq!(mm_two.v_peer().data(), mm_multi.v_peer_of(0).data());
        assert_eq!(
            two.party_a.matmul().unwrap().u_own().data(),
            guests[0].model.matmul().unwrap().u_own().data()
        );
    }

    #[test]
    fn pipelined_mode_is_bit_identical_to_sync() {
        // The engine's determinism contract, at unit-test scale: same
        // seed, Sync vs Pipelined → the exact same floats and the exact
        // same traffic totals (the full 4-way × backend matrix lives in
        // tests/pipeline_parity.rs).
        let ds_spec = dataset_spec("a9a").scaled(40, 1);
        let (train_ds, test_ds) = generate(&ds_spec, 19);
        let train_v = vsplit(&train_ds);
        let test_v = vsplit(&test_ds);
        let cfg = FedConfig::plain();
        let run = |mode: crate::engine::TrainMode| {
            let tc = FedTrainConfig {
                base: bf_ml::TrainConfig {
                    epochs: 3,
                    batch_size: 16,
                    ..Default::default()
                },
                snapshot_u_a: true,
                mode,
                ..Default::default()
            };
            train_federated(
                &FedSpec::Glm { out: 1 },
                &cfg,
                &tc,
                train_v.party_a.clone(),
                train_v.party_b.clone(),
                test_v.party_a.clone(),
                test_v.party_b.clone(),
                31,
            )
        };
        let sync = run(crate::engine::TrainMode::Sync);
        let pipe = run(crate::engine::TrainMode::pipelined());
        assert_eq!(sync.report.losses, pipe.report.losses);
        assert_eq!(sync.report.test_metric, pipe.report.test_metric);
        assert_eq!(sync.report.bytes_a_to_b, pipe.report.bytes_a_to_b);
        assert_eq!(sync.report.bytes_b_to_a, pipe.report.bytes_b_to_a);
        assert_eq!(
            sync.report.u_a_snapshots.len(),
            pipe.report.u_a_snapshots.len()
        );
        for (s, p) in sync
            .report
            .u_a_snapshots
            .iter()
            .zip(&pipe.report.u_a_snapshots)
        {
            assert_eq!(s.data(), p.data());
        }
    }

    #[test]
    fn federated_matches_collocated_lossless() {
        // The headline lossless property (Figure 12), verified exactly:
        // a plaintext model initialised with the *reconstructed*
        // federated initialisation and trained on the identical batch
        // schedule must end at (numerically) the same weights and test
        // logits as the federated run.
        let ds_spec = dataset_spec("a9a").scaled(100, 1);
        let (train_ds, test_ds) = generate(&ds_spec, 11);
        let train_v = vsplit(&train_ds);
        let test_v = vsplit(&test_ds);

        let cfg = FedConfig::plain();
        let seed = 3;
        let run = |epochs: usize| {
            let tc = FedTrainConfig {
                base: bf_ml::TrainConfig {
                    epochs,
                    ..Default::default()
                },
                snapshot_u_a: false,
                ..Default::default()
            };
            train_federated(
                &FedSpec::Glm { out: 1 },
                &cfg,
                &tc,
                train_v.party_a.clone(),
                train_v.party_b.clone(),
                test_v.party_a.clone(),
                test_v.party_b.clone(),
                seed,
            )
        };
        // Zero-epoch run captures the federated initialisation.
        let init = run(0);
        let w_a0 = init
            .party_a
            .matmul()
            .unwrap()
            .u_own()
            .add(init.party_b.matmul().unwrap().v_peer());
        let w_b0 = init
            .party_b
            .matmul()
            .unwrap()
            .u_own()
            .add(init.party_a.matmul().unwrap().v_peer());

        let epochs = 6;
        let outcome = run(epochs);
        let w_a1 = outcome
            .party_a
            .matmul()
            .unwrap()
            .u_own()
            .add(outcome.party_b.matmul().unwrap().v_peer());
        let w_b1 = outcome
            .party_b
            .matmul()
            .unwrap()
            .u_own()
            .add(outcome.party_a.matmul().unwrap().v_peer());

        // Plaintext twin on the collocated data: W = [W_A ; W_B].
        let mut w0_rows: Vec<f64> = w_a0.data().to_vec();
        w0_rows.extend_from_slice(w_b0.data());
        let w0 = bf_tensor::Dense::from_vec(w_a0.rows() + w_b0.rows(), 1, w0_rows);
        let mut col = bf_ml::GlmModel::from_weights(w0);
        let base_cfg = bf_ml::TrainConfig {
            epochs,
            ..Default::default()
        };
        let col_report = bf_ml::train(&mut col, &train_ds, &test_ds, &base_cfg);

        // Weights equal (up to f64 mask-cancellation noise).
        let w_col = col.weights();
        let w_col_a = w_col.select_rows(&(0..w_a1.rows()).collect::<Vec<_>>());
        let w_col_b =
            w_col.select_rows(&(w_a1.rows()..w_a1.rows() + w_b1.rows()).collect::<Vec<_>>());
        assert!(
            w_a1.approx_eq(&w_col_a, 1e-5),
            "W_A drift {}",
            w_a1.sub(&w_col_a).max_abs()
        );
        assert!(
            w_b1.approx_eq(&w_col_b, 1e-5),
            "W_B drift {}",
            w_b1.sub(&w_col_b).max_abs()
        );
        // Metrics equal.
        let gap = (outcome.report.test_metric - col_report.test_metric).abs();
        assert!(gap < 1e-6, "metric gap {gap}");
    }

    #[test]
    fn federated_wdl_trains_with_paillier() {
        // End-to-end Paillier run on a tiny WDL — exercises both source
        // layers with real ciphertexts.
        let ds_spec = dataset_spec("a9a").scaled(400, 2);
        let (train_ds, test_ds) = generate(&ds_spec, 13);
        let train_v = vsplit(&train_ds);
        let test_v = vsplit(&test_ds);

        let cfg = FedConfig::paillier_test();
        let tc = FedTrainConfig {
            base: bf_ml::TrainConfig {
                epochs: 2,
                batch_size: 64,
                ..Default::default()
            },
            snapshot_u_a: true,
            ..Default::default()
        };
        let outcome = train_federated(
            &FedSpec::Wdl {
                emb_dim: 4,
                deep_hidden: vec![8],
                out: 1,
            },
            &cfg,
            &tc,
            train_v.party_a.clone(),
            train_v.party_b.clone(),
            test_v.party_a,
            test_v.party_b,
            21,
        );
        // Smoke test for protocol mechanics at tiny scale: the metric is
        // a sanity bound, not a quality claim (losslessness is verified
        // exactly elsewhere).
        assert!(outcome.report.test_metric.is_finite());
        assert!(
            outcome.report.test_metric > 0.3,
            "AUC {}",
            outcome.report.test_metric
        );
        assert_eq!(outcome.report.u_a_snapshots.len(), 2);
        assert!(outcome.party_a.embed().is_some());
    }
}
