//! The pipelined mini-batch training engine.
//!
//! BlindFL's wall-clock cost is dominated by ciphertext kernels and
//! party-to-party transfers (paper §6, Tables 7/8); the paper's GMP
//! system hides much of the transfer time by overlapping crypto compute
//! with communication. In this crate the overlap is the transport's:
//! every [`bf_mpc::Endpoint`] streams from construction (thread-free in
//! process, a writer/reader pair per TCP link), in training and
//! serving alike. This module adds the other half, selected by
//! [`TrainMode`]: mini-batch *preparation* double-buffered on a worker
//! thread.
//!
//! On a latency-bound link a batch costs its **dependency depth** —
//! the direction reversals on its chain — not its message count: four
//! one-way latencies for a two-party MatMul training batch
//! (`docs/ARCHITECTURE.md` § "Per-batch dependency chains",
//! `tests/critical_path.rs`).
//!
//! # Stages
//!
//! One training step decomposes into the stages below; [`StageTimes`]
//! accumulates wall-clock per stage so the bench harness can show
//! where a configuration spends its time:
//!
//! ```text
//!  prep ──▶ encrypt/upload ──▶ fed-matmul / fed-embed ──▶ top/ss-top
//!   ▲                                                        │
//!   └──────────── decrypt/update ◀───────────────────────────┘
//! ```
//!
//! # Determinism contract
//!
//! Pipelining reorders **wall-clock work only** — never math, never
//! wire content. Each party's protocol thread executes the identical
//! instruction stream in both modes (same RNG draws, same obfuscator
//! counter sequence, same message order), so loss curves are
//! bit-identical and [`bf_mpc::TrafficStats`] totals are equal across
//! `{Sync, Pipelined} × {in-process, TCP}`; `tests/pipeline_parity.rs`
//! enforces all four cells.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::sync_channel;
use std::sync::Arc;
use std::time::Instant;

use bf_ml::data::{BatchIter, Dataset};

/// Where a party prepares its mini-batches. The transport streams in
/// either mode; only batch preparation moves.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TrainMode {
    /// Batches are selected on the protocol thread, one at a time.
    #[default]
    Sync,
    /// Batch prefetch: mini-batch preparation is double-buffered on a
    /// worker thread, two mini-batches ahead of the protocol thread.
    Pipelined,
}

/// Mini-batches the pipelined engine prepares ahead of the protocol
/// thread.
const PREFETCH_BATCHES: usize = 2;

impl TrainMode {
    /// Batch prefetch two mini-batches ahead.
    pub fn pipelined() -> TrainMode {
        TrainMode::Pipelined
    }
}

/// Drive `f` over one epoch's mini-batches, skipping the first `skip`
/// batches (checkpoint resume: the schedule is a pure function of
/// `(rows, batch_size, epoch_seed)`, so a resumed party rebuilds the
/// identical epoch and simply fast-forwards past the batches the
/// checkpoint already covers — no RNG draws, no wire traffic).
///
/// Both parties construct the same deterministic schedule from
/// `(rows, batch_size, epoch_seed)` — exactly [`BatchIter`]'s contract —
/// so the prepared batches are identical in both modes; only *where*
/// `Dataset::select` runs differs (protocol thread vs. prefetch
/// thread). The callback is topology-agnostic: the two-party trainers
/// drive one session through it and the multi-guest trainer drives a
/// whole session slice (every guest shares the schedule, so one
/// prefetched batch feeds all `M` links; each link's transport
/// streams on its own).
pub(crate) fn run_epoch<E>(
    mode: TrainMode,
    data: &Dataset,
    batch_size: usize,
    epoch_seed: u64,
    skip: usize,
    mut f: impl FnMut(Dataset) -> Result<(), E>,
) -> Result<(), E> {
    let iter = BatchIter::new(data.rows(), batch_size, epoch_seed).skip(skip);
    match mode {
        TrainMode::Sync => {
            for idx in iter {
                f(data.select(&idx))?;
            }
            Ok(())
        }
        TrainMode::Pipelined => {
            std::thread::scope(|s| {
                let (tx, rx) = sync_channel::<Dataset>(PREFETCH_BATCHES);
                s.spawn(move || {
                    for idx in iter {
                        // A send error means the consumer bailed (its
                        // callback failed); stop preparing quietly.
                        if tx.send(data.select(&idx)).is_err() {
                            return;
                        }
                    }
                });
                // Receiving until the producer closes the channel
                // yields exactly the sync-mode batch sequence.
                while let Ok(batch) = rx.recv() {
                    f(batch)?;
                }
                Ok(())
            })
        }
    }
}

/// A pipeline stage, for wall-clock attribution. Stages are timed as
/// **non-overlapping** scopes (a nested timer would double-count), so
/// each label names the scope's *dominant* work; time spent blocked in
/// `recv` counts toward the stage that waits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stage {
    /// Party B's up-front `⟦∇Z⟧` encryptions shipped to Party A at the
    /// start of a backward pass. (Delta re-encryptions later in the
    /// backward pass are interleaved with decrypts/updates and count
    /// under [`Stage::DecryptUpdate`].)
    EncryptUpload,
    /// The federated MatMul source layer (Figure 6 forward).
    FedMatmul,
    /// The federated Embed-MatMul source layer: the Figure 7 forward,
    /// and the ciphertext kernels of its backward (`⟦∇Z⟧·Uᵀ`, `ψᵀ⟦∇Z⟧`,
    /// `∇Z·⟦Vᵀ⟧`, `lkup_bw`).
    FedEmbed,
    /// The secret-shared top extension (Appendix B).
    SsTop,
    /// Party B's local top model + loss.
    TopLocal,
    /// The rest of the backward pass: the MatMul source's ciphertext
    /// gradient kernel, HE2SS splits/decrypts, piece updates, delta
    /// re-encryptions and cache refreshes.
    DecryptUpdate,
}

const STAGE_COUNT: usize = 6;

impl Stage {
    fn index(self) -> usize {
        match self {
            Stage::EncryptUpload => 0,
            Stage::FedMatmul => 1,
            Stage::FedEmbed => 2,
            Stage::SsTop => 3,
            Stage::TopLocal => 4,
            Stage::DecryptUpdate => 5,
        }
    }

    /// Human-readable stage label (bench tables).
    pub fn label(self) -> &'static str {
        match self {
            Stage::EncryptUpload => "encrypt/upload",
            Stage::FedMatmul => "fed-matmul",
            Stage::FedEmbed => "fed-embed",
            Stage::SsTop => "ss-top",
            Stage::TopLocal => "top(local)",
            Stage::DecryptUpdate => "decrypt/update",
        }
    }

    const ALL: [Stage; STAGE_COUNT] = [
        Stage::EncryptUpload,
        Stage::FedMatmul,
        Stage::FedEmbed,
        Stage::SsTop,
        Stage::TopLocal,
        Stage::DecryptUpdate,
    ];
}

/// Per-stage wall-clock accumulator, shared through the session so the
/// source layers can attribute their time without threading a borrow
/// through every call (`Arc` + atomics: timers are guards that outlive
/// the `&mut Session` borrows around them).
#[derive(Debug, Default)]
pub struct StageTimes {
    nanos: [AtomicU64; STAGE_COUNT],
}

impl StageTimes {
    /// Start a scoped timer for `stage`; time accumulates when the
    /// returned guard drops.
    pub fn timer(self: &Arc<Self>, stage: Stage) -> StageTimer {
        StageTimer {
            times: Arc::clone(self),
            stage,
            start: Instant::now(),
        }
    }

    /// Seconds accumulated in `stage` so far.
    pub fn secs(&self, stage: Stage) -> f64 {
        self.nanos[stage.index()].load(Ordering::Relaxed) as f64 * 1e-9
    }

    /// `(label, seconds)` for every stage, in pipeline order.
    pub fn snapshot(&self) -> Vec<(&'static str, f64)> {
        Stage::ALL
            .iter()
            .map(|&s| (s.label(), self.secs(s)))
            .collect()
    }
}

/// RAII guard adding its lifetime to one [`Stage`]'s accumulator.
pub struct StageTimer {
    times: Arc<StageTimes>,
    stage: Stage,
    start: Instant,
}

impl StageTimer {
    /// Book the time so far to the current stage and carry on under
    /// `stage`: one scope, several labels, no gap and no overlap (the
    /// Embed backward alternates ciphertext kernels with decrypts and
    /// updates).
    pub fn switch(&mut self, stage: Stage) {
        let now = Instant::now();
        let dt = now.duration_since(self.start).as_nanos() as u64;
        self.times.nanos[self.stage.index()].fetch_add(dt, Ordering::Relaxed);
        self.stage = stage;
        self.start = now;
    }
}

impl Drop for StageTimer {
    fn drop(&mut self) {
        let stage = self.stage;
        self.switch(stage);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bf_tensor::{Dense, Features};

    fn toy_dataset(rows: usize) -> Dataset {
        let data: Vec<f64> = (0..rows * 2).map(|i| i as f64).collect();
        Dataset {
            num: Some(Features::Dense(Dense::from_vec(rows, 2, data))),
            cat: None,
            labels: None,
        }
    }

    /// Collect the batch sequence a mode produces (first feature of
    /// each row identifies the instance).
    fn batch_trace(mode: TrainMode, rows: usize, bs: usize, seed: u64) -> Vec<Vec<f64>> {
        let ds = toy_dataset(rows);
        let mut out = Vec::new();
        run_epoch::<()>(mode, &ds, bs, seed, 0, |b| {
            let f = match b.num.as_ref().unwrap() {
                Features::Dense(d) => (0..d.rows()).map(|r| d.get(r, 0)).collect(),
                _ => unreachable!(),
            };
            out.push(f);
            Ok(())
        })
        .unwrap();
        out
    }

    #[test]
    fn prefetched_batches_match_sync_exactly() {
        for seed in [0u64, 7, 41] {
            let sync = batch_trace(TrainMode::Sync, 37, 8, seed);
            let pipe = batch_trace(TrainMode::pipelined(), 37, 8, seed);
            assert_eq!(sync, pipe);
        }
    }

    #[test]
    fn skip_fast_forwards_to_the_identical_tail() {
        // The checkpoint-resume contract: skipping N batches yields
        // exactly the full schedule minus its first N entries, in both
        // modes.
        let full = batch_trace(TrainMode::Sync, 37, 8, 5);
        for mode in [TrainMode::Sync, TrainMode::pipelined()] {
            for skip in [0usize, 1, 3, full.len()] {
                let ds = toy_dataset(37);
                let mut tail: Vec<Vec<f64>> = Vec::new();
                run_epoch::<()>(mode, &ds, 8, 5, skip, |b| {
                    let f: Vec<f64> = match b.num.as_ref().unwrap() {
                        Features::Dense(d) => (0..d.rows()).map(|r| d.get(r, 0)).collect(),
                        _ => unreachable!(),
                    };
                    tail.push(f);
                    Ok(())
                })
                .unwrap();
                assert_eq!(tail, full[skip..]);
            }
        }
    }

    #[test]
    fn run_epoch_propagates_callback_errors() {
        let ds = toy_dataset(64);
        for mode in [TrainMode::Sync, TrainMode::pipelined()] {
            let mut n = 0;
            let res = run_epoch(mode, &ds, 8, 3, 0, |_| {
                n += 1;
                if n == 3 {
                    Err("boom")
                } else {
                    Ok(())
                }
            });
            assert_eq!(res, Err("boom"));
            assert_eq!(n, 3);
        }
    }

    #[test]
    fn stage_times_accumulate() {
        let t = Arc::new(StageTimes::default());
        {
            let _g = t.timer(Stage::FedMatmul);
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        assert!(t.secs(Stage::FedMatmul) >= 0.004);
        assert_eq!(t.secs(Stage::FedEmbed), 0.0);
        // A switched timer books each stretch to the stage it ran under.
        {
            let mut g = t.timer(Stage::DecryptUpdate);
            g.switch(Stage::FedEmbed);
            std::thread::sleep(std::time::Duration::from_millis(5));
            g.switch(Stage::DecryptUpdate);
        }
        assert!(t.secs(Stage::FedEmbed) >= 0.004);
        assert!(t.secs(Stage::DecryptUpdate) < t.secs(Stage::FedEmbed));
        let snap = t.snapshot();
        assert_eq!(snap.len(), 6);
        assert!(snap.iter().any(|(l, s)| *l == "fed-matmul" && *s > 0.0));
    }
}
