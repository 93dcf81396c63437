//! **blindfl** — a from-scratch Rust reproduction of
//! *BlindFL: Vertical Federated Machine Learning without Peeking into
//! Your Data* (Fu, Xue, Cheng, Tao, Cui — SIGMOD 2022).
//!
//! Two parties own disjoint feature sets over the same instances;
//! Party B additionally owns the labels. BlindFL trains models over the
//! virtually-joint data through **federated source layers**: the first
//! layer of the network is computed jointly under Paillier encryption
//! and two-party additive secret sharing, so that
//!
//! * Party A never observes any forward activation, backward
//!   derivative, model weight, or model gradient (⇒ no label leakage),
//! * Party B never observes `X_A·W_A` / `E_A` / any weight in plaintext
//!   (⇒ no feature leakage),
//! * the outputs and updates are **lossless** — identical to
//!   non-federated training up to fixed-point quantisation.
//!
//! # Paper-section correspondence / crate layout
//!
//! This crate is the paper's **§4 (federated source layers)** and the
//! protocol flows of **§5 (secure aggregation)**; the §5 primitives
//! themselves (`HE2SS`/`SS2HE`, sharing, transport) live in `bf-mpc`
//! and the §7.1 cryptography in `bf-paillier`.
//!
//! * [`config`] / [`session`] — protocol parameters and the per-party
//!   cryptographic session (key handshake, transport, RNG). Sessions
//!   are transport-agnostic: the same code runs over in-process
//!   channels or TCP (see `docs/ARCHITECTURE.md` for the seam).
//! * [`privacy`] — the paper's Tables 2 & 3 as data: the restricted
//!   observables per party, consumed by the security tests.
//! * [`align`] — the sample-alignment (PSI) phase: salted-digest
//!   private set intersection over sample-ID columns right after the
//!   handshake, relaxing the paper's pre-aligned-instances assumption;
//!   selected per run by [`train::FedTrainConfig::align`]. Bit-identity
//!   with pre-aligned runs is proven by `tests/alignment_parity.rs`.
//! * [`source::matmul`] — the MatMul federated source layer
//!   (§4.2, Figure 6).
//! * [`source::embed`] — the Embed-MatMul federated source layer
//!   (§4.3, Figure 7).
//! * [`source::ss_top`] — the secret-shared-top-model variants
//!   (Appendix B, Figures 13–14).
//! * [`multiparty`] — the `Hello` link fan-in of one-process-per-guest
//!   TCP deployments. The multi-guest extension itself (Appendix C) is
//!   not a second stack: the host model and the host MatMul layer run
//!   over a slice of guest links (Algorithm 3's `M+1`-way weight split;
//!   per-link pairwise submodels for the bilinear embedding), and the
//!   two-party job is their one-link instance.
//! * [`models`] / [`train`] — the federated model zoo (LR, MLR, MLP,
//!   WDL, DLRM) and the training/inference runtime: two entry points,
//!   [`train::run_party_a`] per guest and [`train::run_party_b`] for
//!   the host over its links, with resume and alignment as fields of
//!   [`train::FedTrainConfig`]; [`train::train_federated`] (two
//!   threads) and [`train::train_federated_multi`] (`M + 1` threads)
//!   are the in-process harnesses.
//! * [`engine`] — the pipelined mini-batch engine:
//!   [`engine::TrainMode`] selects between the lock-step loop and the
//!   queue-decoupled, double-buffered pipeline (bit-identical results;
//!   see the module docs for the determinism contract).
//! * [`persist`] — byte-exact model-state persistence (export/import
//!   of the trained party halves, momentum buffers and ciphertext
//!   caches included, so a reloaded model resumes training
//!   bit-identically; format spec in `docs/SERVING.md`).
//! * [`serve`] — the federated inference serving runtime: Party B
//!   hosts a micro-batching request queue that coalesces concurrent
//!   single-row prediction requests into one federated forward pass
//!   ([`serve::serve_party_b`] over the host's links,
//!   [`serve::serve_party_a`] at every guest), completing the
//!   train → persist → serve model life cycle.
//! * [`gateway`] — the multi-client serving front door: a
//!   nonblocking TCP acceptor + event loop ([`bf_mpc::reactor`])
//!   multiplexing many concurrent client connections onto a pool of
//!   serving replicas (each its own session(s) + model over its own
//!   guest link(s)) through sharded micro-batch queues, with
//!   admission control and backpressure. Served bits stay identical
//!   to the direct forward — each replica records its batch
//!   partitions so the parity contract is replayable.
//!
//! # Quickstart
//!
//! See `examples/quickstart.rs` at the repository root: generate a
//! vertically-split dataset, call [`train::train_federated`] with a
//! [`models::FedSpec`], and compare against the collocated baseline.
//! For the two-process TCP deployment, see
//! `examples/tcp_federated_lr.rs`; for the serving deployment
//! (train, persist, then serve predictions over TCP), see
//! `examples/tcp_serving.rs`.

#![warn(missing_docs)]
#![allow(clippy::too_many_arguments)] // protocol functions mirror the paper's parameter lists
pub mod align;
pub mod config;
pub mod engine;
pub mod gateway;
pub mod inspect;
pub mod models;
pub mod multiparty;
pub mod persist;
pub mod privacy;
pub mod serve;
pub mod session;
pub mod source;
pub mod train;
pub mod trees;

pub use align::{align_guest, align_host, psi_salt, AlignInput, Alignment};
pub use config::{Backend, FedConfig, GradMode};
pub use engine::TrainMode;
pub use gateway::{
    gateway_replica_seed, run_gateway, GatewayClient, GatewayConfig, GatewayReject, GatewayReplica,
    GatewayReport,
};
pub use models::FedSpec;
pub use persist::{
    export_checkpoint_a, export_checkpoint_b, export_gbdt_guest, export_gbdt_host, export_party_a,
    export_party_b, import_checkpoint_a, import_checkpoint_b, import_gbdt_guest, import_gbdt_host,
    import_party_a, import_party_b, AlignCursor, CheckpointA, CheckpointB, LinkCursor,
    PersistError,
};
pub use serve::{
    queue as serve_queue, serve_party_a, serve_party_b, PendingPrediction, PredictClient,
    Prediction, ServeConfig, ServeError, ServeGuestReport, ServeReport,
};
pub use session::Session;
pub use train::{
    run_party_a, run_party_b, train_federated, train_federated_multi, CheckpointCadence,
    FedOutcome, FedReport, FedTrainConfig, PartyARun, PartyBRun, FAULT_KILL_MARKER,
};
pub use trees::{
    predict_gbdt_host, run_gbdt_guest, run_gbdt_host, serve_gbdt_guest, serve_gbdt_host,
    train_gbdt, GbdtFedOutcome, GbdtGuestModel, GbdtGuestRun, GbdtHostModel, GbdtHostRun,
};
