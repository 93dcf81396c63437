//! The multi-client federated serving **gateway**: Party B's front
//! door for prediction traffic at deployment scale (ROADMAP item 2).
//!
//! PR 5's serving runtime multiplexes riders onto *one* session via
//! one micro-batching queue ([`crate::serve`]); this module scales
//! that design out without changing a byte of the federated protocol:
//!
//! ```text
//!  many TCP clients            gateway event loop            replica pool
//!  ───────────────             ──────────────────            ────────────
//!  U64(row) ──┐                                         ┌─▶ shard 0 queue ─▶ serve_party_b ◀─link─▶ guest
//!  U64(row) ──┼─▶ FrameAcceptor ─▶ dispatch (least      ├─▶ shard 1 queue ─▶ serve_party_b ◀─link─▶ guest
//!  U64(row) ──┘     │              outstanding, row     └─▶ shard 2 queue ─▶ serve_party_b ◀═links═▶ M guests
//!                   │              validated)                     │
//!                   ◀── Mat(logits) / U64(reject code) ───────────┘
//!                       strictly FIFO per connection
//! ```
//!
//! * **Acceptor + event loop** — one thread, nonblocking
//!   [`FrameAcceptor`]/[`FrameConn`] ([`bf_mpc::reactor`]): accept,
//!   read, dispatch, collect completions, flush, in a level-triggered
//!   scan with an idle sleep. No thread per connection.
//! * **Replica pool** — each [`GatewayReplica`] is a full Party B
//!   serving stack (session(s) over its own guest link(s) + a model
//!   loaded via [`crate::persist`]) running the *unmodified*
//!   [`crate::serve::serve_party_b`] loop on its own thread. The replicas' federated forwards proceed in
//!   parallel; the event loop never blocks on one.
//! * **Sharded queues** — one bounded [`crate::serve::queue`] per
//!   replica; requests go to the live shard with the fewest
//!   outstanding requests.
//! * **Admission control & backpressure** — per-connection window
//!   ([`GatewayConfig::conn_window`]) plus per-shard depth
//!   ([`GatewayConfig::shard_depth`]) bound gateway memory. When
//!   every shard is full the gateway either stops reading
//!   (backpressure — default) or answers
//!   [`GW_OVERLOADED`] immediately ([`GatewayConfig::shed_load`]).
//! * **Accounting** — every request is answered, rejected, or
//!   orphaned (client left first); nothing vanishes.
//!
//! **Wire protocol** (no new frame kinds): a request is one
//! [`Msg::U64`] carrying the row index; the reply is one [`Msg::Mat`]
//! (the logits row) or one [`Msg::U64`] reject code ([`GW_BAD_ROW`] /
//! [`GW_OVERLOADED`] / [`GW_UNAVAILABLE`]). Replies are strictly FIFO
//! per connection, so clients correlate by order ([`GatewayClient`]
//! does this bookkeeping).
//!
//! **Parity contract**: a gateway-served prediction is bit-identical
//! to the direct [`crate::models::PartyBModel::predict_batch`] forward
//! on an identically-seeded session under the same batch partition.
//! Each replica records its exact partitions
//! ([`crate::serve::ServeReport::batch_rows`]), so the contract is
//! *replayable*: `tests/gateway.rs` re-runs every partition directly
//! and compares bits (see `docs/SERVING.md` §gateway).

use std::collections::VecDeque;
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use bf_ml::data::Dataset;
use bf_mpc::reactor::{FrameAcceptor, FrameConn};
use bf_mpc::transport::{Endpoint, Msg, TransportError, TransportResult};
use bf_tensor::Dense;

use crate::models::PartyBModel;
use crate::serve::{self, PendingPrediction, RequestQueue, ServeConfig, ServeError, ServeReport};
use crate::session::Session;

/// Reply code: the requested row is not in the serving feature store
/// (or does not fit the `u32` Support payload).
pub const GW_BAD_ROW: u64 = 0x6A7E_0BAD;
/// Reply code: every shard is full and the gateway is shedding load
/// ([`GatewayConfig::shed_load`]).
pub const GW_OVERLOADED: u64 = 0x6A7E_0F11;
/// Reply code: no live replica can take the request (pool died).
pub const GW_UNAVAILABLE: u64 = 0x6A7E_0DED;

/// Derive replica `r`'s session seed from the deployment's base
/// serving seed. Replica 0 keeps the base seed, so a 1-replica
/// gateway reproduces the single-session serving deployment's bits
/// exactly; other replicas get decorrelated (but deterministic)
/// seeds. Pair it with [`crate::session::party_seed`] /
/// [`crate::session::multi_party_seed`] exactly as in single-session
/// serving.
pub fn gateway_replica_seed(base: u64, replica: usize) -> u64 {
    base ^ (replica as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Gateway sizing and admission-control knobs.
#[derive(Clone, Copy, Debug)]
pub struct GatewayConfig {
    /// Per-replica micro-batch ceiling
    /// ([`crate::serve::ServeConfig::max_batch`]).
    pub max_batch: usize,
    /// Per-shard queue capacity: at most this many requests may be
    /// outstanding on one replica (queued + in its current batch).
    pub shard_depth: usize,
    /// Most requests one connection may have outstanding; reads from
    /// a connection at its window are deferred (per-client fairness
    /// and memory bound).
    pub conn_window: usize,
    /// `false` (default): when every shard is full, stop reading —
    /// requests queue in kernel buffers and clients feel backpressure.
    /// `true`: read anyway and answer [`GW_OVERLOADED`] immediately.
    pub shed_load: bool,
    /// Event-loop sleep when a full scan makes no progress.
    pub poll_interval: Duration,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig {
            max_batch: 32,
            shard_depth: 256,
            conn_window: 256,
            shed_load: false,
            poll_interval: Duration::from_micros(200),
        }
    }
}

/// One member of the replica pool: a complete Party B serving stack
/// (session(s) + model) that a gateway thread drives with the
/// unmodified serve loop. The two variants are two spellings of the
/// same thing — a host model over its guest links — kept while callers
/// still build the one-link form by name.
// A pool holds a handful of replicas, each consumed once at spawn —
// the size asymmetry between the variants is irrelevant here.
#[allow(clippy::large_enum_variant)]
pub enum GatewayReplica {
    /// A one-guest replica.
    TwoParty {
        /// The replica's session with its guest.
        sess: Session,
        /// The replica's Party B model half (typically loaded from
        /// one shared persisted blob).
        model: PartyBModel,
    },
    /// A replica over `M` guest links, `Appendix C` style.
    MultiGuest {
        /// One session per guest link, in link order.
        sessions: Vec<Session>,
        /// The replica's Party B model half over those links.
        model: PartyBModel,
    },
}

impl GatewayReplica {
    /// Drive this replica's serve loop to queue exhaustion (the
    /// gateway drops the shard's client handle to stop it).
    pub fn serve(
        self,
        store: &Dataset,
        cfg: &ServeConfig,
        queue: RequestQueue,
    ) -> TransportResult<ServeReport> {
        let (mut links, mut model) = match self {
            GatewayReplica::TwoParty { sess, model } => (vec![sess], model),
            GatewayReplica::MultiGuest { sessions, model } => (sessions, model),
        };
        serve::serve_party_b(&mut links, &mut model, store, cfg, queue)
    }
}

/// What a gateway run produced, with the per-replica serve reports
/// (whose [`ServeReport::batch_rows`] make the parity contract
/// replayable).
#[derive(Debug, Default)]
pub struct GatewayReport {
    /// Prediction replies delivered to clients.
    pub answered: u64,
    /// Requests answered with a reject code (bad row, overloaded,
    /// pool unavailable).
    pub rejected: u64,
    /// Requests whose replica answer arrived after the client was
    /// gone (churn); executed but undeliverable.
    pub orphaned: u64,
    /// Connections accepted over the run.
    pub clients: u64,
    /// Peak requests resident in the gateway at once (accepted, not
    /// yet replied) — the memory bound admission control enforces.
    pub peak_in_flight: u64,
    /// Gateway wall-clock from entry to drain, in seconds.
    pub wall_secs: f64,
    /// Per-replica serve reports, in replica order. Failed replicas
    /// are absent here and reported in
    /// [`GatewayReport::replica_failures`].
    pub replicas: Vec<ServeReport>,
    /// Errors from replicas whose serve loop failed, as
    /// `"replica <i>: <error>"` strings, in replica order.
    pub replica_failures: Vec<String>,
    /// Lazily-sorted merge of every replica's latencies, populated on
    /// the first quantile query so repeated `p50`/`p99` calls merge and
    /// sort once. Public only for functional-record-update
    /// construction; leave it empty (see
    /// [`ServeReport::sorted_latencies`]).
    #[doc(hidden)]
    pub sorted_latencies: std::sync::OnceLock<Vec<f64>>,
}

impl GatewayReport {
    /// Requests the replica pool actually forwarded (sum of replica
    /// `requests`; includes orphaned ones).
    pub fn requests(&self) -> u64 {
        self.replicas.iter().map(|r| r.requests).sum()
    }

    /// Answered replies per wall-clock second.
    pub fn sustained_qps(&self) -> f64 {
        if self.wall_secs > 0.0 {
            self.answered as f64 / self.wall_secs
        } else {
            0.0
        }
    }

    /// The `q`-quantile of per-request latency across every replica,
    /// in seconds, ceil-based nearest rank over the merged sample
    /// (0 when nothing served). Identical by definition to recomputing
    /// the quantile over the concatenation of all per-replica latency
    /// vectors (`tests/quantiles.rs` proves it).
    pub fn latency_quantile_secs(&self, q: f64) -> f64 {
        let sorted = self.sorted_latencies.get_or_init(|| {
            let mut all: Vec<f64> = self
                .replicas
                .iter()
                .flat_map(|r| r.latencies_secs.iter().copied())
                .collect();
            all.sort_by(f64::total_cmp);
            all
        });
        crate::serve::quantile_ceil(sorted, q)
    }

    /// Median per-request latency in seconds, pool-wide.
    pub fn p50_latency_secs(&self) -> f64 {
        self.latency_quantile_secs(0.50)
    }

    /// 99th-percentile per-request latency in seconds, pool-wide.
    pub fn p99_latency_secs(&self) -> f64 {
        self.latency_quantile_secs(0.99)
    }
}

/// One shard: the client half of a replica's request queue plus the
/// dispatcher's view of its load and health.
struct Shard {
    client: serve::PredictClient,
    outstanding: usize,
    live: bool,
}

/// One slot in a connection's FIFO reply pipeline.
enum Slot {
    /// Submitted to shard `shard`; the replica will answer.
    Waiting {
        shard: usize,
        pending: PendingPrediction,
    },
    /// Answered at admission time (reject codes) — ready to send as
    /// soon as every earlier slot has been.
    Ready(Msg),
}

/// One client connection: its socket plus the FIFO of not-yet-replied
/// requests.
struct Conn {
    io: FrameConn,
    pending: VecDeque<Slot>,
    alive: bool,
}

/// Run the gateway event loop until `stop` is set **and** every
/// accepted request has been replied to and flushed. `stop` is the
/// orchestrator's drain signal — set it once the client fleet is done
/// submitting (new connections are refused from then on).
///
/// Every replica serves the same `store` (Party B's feature slice) —
/// the deployment shape is N identical replicas loaded from one
/// persisted blob, each with its own guest link(s) and a seed from
/// [`gateway_replica_seed`].
///
/// Returns `Err` only when the gateway itself cannot run (no
/// replicas, acceptor failure) or the whole pool failed; individual
/// replica failures degrade capacity and land in
/// [`GatewayReport::replica_failures`].
pub fn run_gateway(
    listener: TcpListener,
    replicas: Vec<GatewayReplica>,
    store: &Dataset,
    cfg: &GatewayConfig,
    stop: &AtomicBool,
) -> TransportResult<GatewayReport> {
    if replicas.is_empty() {
        return Err(TransportError::Setup(
            "run_gateway needs at least one replica".into(),
        ));
    }
    let acceptor = FrameAcceptor::from_listener(listener)?;
    let serve_cfg = ServeConfig {
        max_batch: cfg.max_batch.max(1),
    };
    let shard_depth = cfg.shard_depth.max(1);
    let conn_window = cfg.conn_window.max(1);
    let store_rows = store.rows();
    let started = Instant::now();

    std::thread::scope(|scope| {
        let mut shards = Vec::with_capacity(replicas.len());
        let mut handles = Vec::with_capacity(replicas.len());
        for (i, replica) in replicas.into_iter().enumerate() {
            let (client, queue) = serve::queue(shard_depth);
            shards.push(Shard {
                client,
                outstanding: 0,
                live: true,
            });
            let serve_cfg = &serve_cfg;
            handles.push(
                std::thread::Builder::new()
                    .name(format!("gw-replica-{i}"))
                    .stack_size(16 << 20)
                    .spawn_scoped(scope, move || replica.serve(store, serve_cfg, queue))
                    .expect("spawn replica thread"),
            );
        }

        let mut conns: Vec<Conn> = Vec::new();
        let mut orphans: Vec<(usize, PendingPrediction)> = Vec::new();
        let mut answered = 0u64;
        let mut rejected = 0u64;
        let mut orphaned = 0u64;
        let mut clients = 0u64;
        let mut peak_in_flight = 0u64;

        loop {
            let mut progress = false;

            // 1. Accept (refused once draining).
            if !stop.load(Ordering::Relaxed) {
                while let Some(io) = acceptor.try_accept()? {
                    conns.push(Conn {
                        io,
                        pending: VecDeque::new(),
                        alive: true,
                    });
                    clients += 1;
                    progress = true;
                }
            }

            // 2. Read + dispatch, bounded by the connection window and
            //    (in backpressure mode) by pool capacity.
            for conn in conns.iter_mut() {
                while conn.alive && conn.pending.len() < conn_window {
                    let any_live = shards.iter().any(|s| s.live);
                    let has_room = shards.iter().any(|s| s.live && s.outstanding < shard_depth);
                    if any_live && !has_room && !cfg.shed_load {
                        // Backpressure: leave the request in the
                        // socket until a shard frees up.
                        break;
                    }
                    match conn.io.try_recv() {
                        Ok(None) => break,
                        Ok(Some(Msg::U64(row))) => {
                            progress = true;
                            let slot =
                                dispatch(&mut shards, row, store_rows, shard_depth, &mut rejected);
                            conn.pending.push_back(slot);
                        }
                        // Any other frame kind is a protocol
                        // violation; a read error is a disconnect.
                        // Either way the read side is done (in-flight
                        // replies still flush below).
                        Ok(Some(_)) | Err(_) => {
                            conn.alive = false;
                        }
                    }
                }
            }

            // 3. Completions, strictly FIFO per connection.
            for conn in conns.iter_mut() {
                while let Some(front) = conn.pending.front_mut() {
                    let msg = match front {
                        Slot::Ready(_) => {
                            let Some(Slot::Ready(msg)) = conn.pending.pop_front() else {
                                unreachable!("front was Ready");
                            };
                            msg
                        }
                        Slot::Waiting { shard, pending } => {
                            let shard = *shard;
                            let Some(result) = pending.try_wait() else {
                                break; // head still in flight; FIFO waits
                            };
                            shards[shard].outstanding -= 1;
                            conn.pending.pop_front();
                            match result {
                                Ok(pred) => {
                                    answered += 1;
                                    let n = pred.logits.len();
                                    Msg::Mat(Dense::from_vec(1, n, pred.logits))
                                }
                                Err(ServeError::Closed) => {
                                    shards[shard].live = false;
                                    rejected += 1;
                                    Msg::U64(GW_UNAVAILABLE)
                                }
                                Err(ServeError::BadRow { .. }) => {
                                    rejected += 1;
                                    Msg::U64(GW_BAD_ROW)
                                }
                                Err(ServeError::Overloaded) => {
                                    rejected += 1;
                                    Msg::U64(GW_OVERLOADED)
                                }
                            }
                        }
                    };
                    conn.io.enqueue(&msg);
                    progress = true;
                }
            }

            // 4. Flush, then reap dead connections — their in-flight
            //    requests become orphans (the replica still answers;
            //    the answer is undeliverable).
            conns.retain_mut(|conn| {
                if conn.io.try_flush().is_err() {
                    conn.alive = false;
                }
                if conn.alive {
                    return true;
                }
                for slot in conn.pending.drain(..) {
                    if let Slot::Waiting { shard, pending } = slot {
                        orphans.push((shard, pending));
                    }
                }
                progress = true;
                false
            });

            // 5. Drain orphans so shard accounting stays exact.
            orphans.retain(|(shard, pending)| match pending.try_wait() {
                None => true,
                Some(result) => {
                    shards[*shard].outstanding -= 1;
                    orphaned += 1;
                    if matches!(result, Err(ServeError::Closed)) {
                        shards[*shard].live = false;
                    }
                    progress = true;
                    false
                }
            });

            let in_flight =
                conns.iter().map(|c| c.pending.len()).sum::<usize>() as u64 + orphans.len() as u64;
            peak_in_flight = peak_in_flight.max(in_flight);

            // 6. Drained? (Only after `stop`: every reply delivered
            //    and flushed, every orphan resolved.)
            if stop.load(Ordering::Relaxed)
                && orphans.is_empty()
                && conns
                    .iter()
                    .all(|c| c.pending.is_empty() && c.io.pending_out() == 0)
            {
                break;
            }
            if !progress {
                std::thread::sleep(cfg.poll_interval);
            }
        }

        // Dropping the shard clients closes every queue; the replica
        // serve loops drain and send SERVE_SHUTDOWN to their guests.
        drop(conns);
        drop(shards);
        let mut reports = Vec::new();
        let mut replica_failures = Vec::new();
        for (i, handle) in handles.into_iter().enumerate() {
            match handle.join().expect("replica thread panicked") {
                Ok(r) => reports.push(r),
                Err(e) => replica_failures.push(format!("replica {i}: {e}")),
            }
        }
        if reports.is_empty() {
            return Err(TransportError::Setup(format!(
                "every gateway replica failed: {}",
                replica_failures.join("; ")
            )));
        }
        Ok(GatewayReport {
            answered,
            rejected,
            orphaned,
            clients,
            peak_in_flight,
            wall_secs: started.elapsed().as_secs_f64(),
            replicas: reports,
            replica_failures,
            sorted_latencies: std::sync::OnceLock::new(),
        })
    })
}

/// Admit one request: validate the row, then submit it to the live
/// shard with the fewest outstanding requests (failing over past dead
/// shards). Requests that cannot be admitted become immediate reject
/// replies.
fn dispatch(
    shards: &mut [Shard],
    row: u64,
    store_rows: usize,
    shard_depth: usize,
    rejected: &mut u64,
) -> Slot {
    // Row indices travel as u32 in the Support payload; anything that
    // would truncate is as bad as out-of-range (mirrors the serve
    // loop's own check, but fails fast at the front door).
    if row >= store_rows as u64 || u32::try_from(row).is_err() {
        *rejected += 1;
        return Slot::Ready(Msg::U64(GW_BAD_ROW));
    }
    loop {
        let best = shards
            .iter()
            .enumerate()
            .filter(|(_, s)| s.live && s.outstanding < shard_depth)
            .min_by_key(|(_, s)| s.outstanding)
            .map(|(i, _)| i);
        let Some(i) = best else {
            *rejected += 1;
            let code = if shards.iter().any(|s| s.live) {
                GW_OVERLOADED // every live shard full (shed_load mode)
            } else {
                GW_UNAVAILABLE // the whole pool is dead
            };
            return Slot::Ready(Msg::U64(code));
        };
        match shards[i].client.try_submit(row as usize) {
            Ok(pending) => {
                shards[i].outstanding += 1;
                return Slot::Waiting { shard: i, pending };
            }
            // `outstanding < shard_depth` bounds the queue, so Full
            // here means our accounting raced a dying replica — treat
            // both failures as "this shard is unusable" and fail over.
            Err(_) => {
                shards[i].live = false;
            }
        }
    }
}

/// Why a gateway rejected a request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GatewayReject {
    /// The row is not in the serving store ([`GW_BAD_ROW`]).
    BadRow,
    /// Every shard was full and the gateway sheds load
    /// ([`GW_OVERLOADED`]).
    Overloaded,
    /// No live replica remained ([`GW_UNAVAILABLE`]).
    Unavailable,
}

/// A blocking gateway client: pipeline any number of [`submit`]s,
/// then [`recv`] replies in submission order (the gateway's FIFO
/// reply contract makes the correlation exact). One TCP connection
/// per client.
///
/// [`submit`]: GatewayClient::submit
/// [`recv`]: GatewayClient::recv
pub struct GatewayClient {
    ep: Endpoint,
    inflight: VecDeque<u64>,
}

impl GatewayClient {
    /// Connect to a gateway, retrying until `timeout` (the gateway
    /// may still be binding).
    pub fn connect<A: std::net::ToSocketAddrs + Clone>(
        addr: A,
        timeout: Duration,
    ) -> TransportResult<GatewayClient> {
        Ok(GatewayClient {
            ep: Endpoint::tcp_connect_retry(addr, timeout)?,
            inflight: VecDeque::new(),
        })
    }

    /// Send a prediction request for `row` without waiting — the
    /// pipelined form that lets one client keep many requests in
    /// flight.
    pub fn submit(&mut self, row: u64) -> TransportResult<()> {
        self.ep.send(Msg::U64(row))?;
        self.inflight.push_back(row);
        Ok(())
    }

    /// Receive the oldest in-flight request's reply: the requested
    /// row plus its logits (or the reject reason).
    pub fn recv(&mut self) -> TransportResult<(u64, Result<Vec<f64>, GatewayReject>)> {
        let row = self.inflight.pop_front().ok_or_else(|| {
            TransportError::Setup("GatewayClient::recv with no request in flight".into())
        })?;
        match self.ep.recv()? {
            Msg::Mat(m) => Ok((row, Ok(m.row(0).to_vec()))),
            Msg::U64(GW_BAD_ROW) => Ok((row, Err(GatewayReject::BadRow))),
            Msg::U64(GW_OVERLOADED) => Ok((row, Err(GatewayReject::Overloaded))),
            Msg::U64(GW_UNAVAILABLE) => Ok((row, Err(GatewayReject::Unavailable))),
            Msg::U64(v) => Err(TransportError::Setup(format!(
                "unknown gateway reply code {v:#x}"
            ))),
            other => Err(TransportError::TypeMismatch {
                expected: "Mat",
                got: other.kind(),
            }),
        }
    }

    /// Submit and wait — the closed-loop form.
    pub fn predict(&mut self, row: u64) -> TransportResult<Result<Vec<f64>, GatewayReject>> {
        self.submit(row)?;
        Ok(self.recv()?.1)
    }

    /// Requests submitted but not yet answered.
    pub fn in_flight(&self) -> usize {
        self.inflight.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Mirror of the `ServeReport` regression: the pool-wide quantile
    /// uses ceil-based nearest rank over the *merged* sample.
    #[test]
    fn merged_quantile_uses_ceil_nearest_rank() {
        // 67 samples split unevenly across two replicas.
        let all: Vec<f64> = (1..=67).map(|i| i as f64).collect();
        let report = GatewayReport {
            replicas: vec![
                ServeReport {
                    latencies_secs: all[..20].to_vec(),
                    ..Default::default()
                },
                ServeReport {
                    latencies_secs: all[20..].to_vec(),
                    ..Default::default()
                },
            ],
            ..Default::default()
        };
        assert_eq!(report.latency_quantile_secs(0.99), 67.0);
        assert_eq!(report.latency_quantile_secs(0.0), 1.0);
        // No replicas at all: still 0, no panic.
        assert_eq!(GatewayReport::default().p99_latency_secs(), 0.0);
    }

    #[test]
    fn replica_zero_keeps_the_base_seed() {
        // A 1-replica gateway must reproduce the single-session
        // serving deployment's session seeds (and therefore its bits).
        assert_eq!(gateway_replica_seed(0x0D15_EA5E, 0), 0x0D15_EA5E);
        // Other replicas decorrelate deterministically.
        let s1 = gateway_replica_seed(7, 1);
        let s2 = gateway_replica_seed(7, 2);
        assert_ne!(s1, 7);
        assert_ne!(s2, 7);
        assert_ne!(s1, s2);
        assert_eq!(s1, gateway_replica_seed(7, 1));
    }

    #[test]
    fn reject_codes_are_distinct() {
        assert_ne!(GW_BAD_ROW, GW_OVERLOADED);
        assert_ne!(GW_BAD_ROW, GW_UNAVAILABLE);
        assert_ne!(GW_OVERLOADED, GW_UNAVAILABLE);
        // And none collides with the serve shutdown sentinel (they
        // share the U64 kind on different links; keep them disjoint
        // anyway so logs stay unambiguous).
        assert_ne!(GW_BAD_ROW, serve::SERVE_SHUTDOWN);
        assert_ne!(GW_OVERLOADED, serve::SERVE_SHUTDOWN);
        assert_ne!(GW_UNAVAILABLE, serve::SERVE_SHUTDOWN);
    }

    #[test]
    fn run_gateway_refuses_an_empty_pool() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let store = Dataset {
            num: None,
            cat: None,
            labels: None,
        };
        let stop = AtomicBool::new(true);
        let err = run_gateway(
            listener,
            Vec::new(),
            &store,
            &GatewayConfig::default(),
            &stop,
        )
        .unwrap_err();
        assert!(matches!(err, TransportError::Setup(_)));
    }
}
