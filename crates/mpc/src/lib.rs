//! Two-party MPC primitives for BlindFL — the machinery under the
//! paper's **federated source layers (§4)** and **secure aggregation
//! (§5)**: every cross-party byte of those protocols moves through this
//! crate, and nothing restricted ever should.
//!
//! * [`transport`] — the "network": a pluggable [`Endpoint`] with an
//!   in-process channel backend (tests, single-machine experiments) and
//!   a TCP backend speaking the documented binary protocol
//!   (`docs/WIRE_PROTOCOL.md`), both with full byte/message accounting
//!   so the harnesses can report communication volume alongside
//!   wall-clock time.
//! * [`wire`] — the byte-level frame codec the TCP backend speaks
//!   (golden-tested; see `docs/WIRE_PROTOCOL.md`).
//! * [`shares`] — two-party additive secret sharing of `f64` tensors
//!   (the representation the paper's §4 `FederatedParameter`s use; see
//!   Figure 11 for the magnitude convention).
//! * [`convert`] — the paper's Algorithm 1 (`HE2SS`) and Algorithm 2
//!   (`SS2HE`), the §5 glue between the Paillier and secret-sharing
//!   domains.
//! * [`beaver`] — Beaver matmul triplets (trusted-dealer / client-aided
//!   and HE-assisted generation) powering the SecureML baseline of the
//!   paper's evaluation.
//! * [`reactor`] — nonblocking framed-TCP primitives
//!   ([`FrameAcceptor`] / [`FrameConn`]) for event-loop servers that
//!   multiplex many connections without a thread per link; the
//!   serving gateway's readiness seam.
//! * [`fault`] — deterministic fault injection ([`FaultPlan`]:
//!   kill/drop/delay at batch N, built in code) for the chaos
//!   harness; the transport's reconnect + replay layer and the
//!   trainer's checkpoint resume are what it exercises.
//! * [`psi`] — salted-digest private set intersection over sample-ID
//!   columns (wire kinds 11–12, protocol v6): the alignment phase that
//!   runs before any training or serving protocol, emitting each
//!   party's deterministic row selection for the common samples.

#![warn(missing_docs)]
#![allow(clippy::too_many_arguments)] // protocol functions mirror the paper's parameter lists
pub mod beaver;
pub mod convert;
pub mod fault;
pub mod psi;
pub mod reactor;
pub mod shares;
pub mod transport;
pub mod wire;

pub use convert::{decrypt_reply, he2ss_holder, he2ss_peer, he2ss_product_holder, ss2he, Product};
pub use fault::{FaultAction, FaultPlan};
pub use psi::{psi_digest, psi_guest, psi_host, select_common, PsiError, PsiSelection};
pub use reactor::{FrameAcceptor, FrameConn};
pub use shares::{reconstruct, share_dense};
pub use transport::{
    channel_pair, channel_pair_with_network, Endpoint, Msg, NetworkProfile, Redial, RetryPolicy,
    TrafficStats, TransportError, TransportResult,
};
