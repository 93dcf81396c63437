//! Federated inference serving: Party B hosts a **micro-batching
//! request queue** that coalesces concurrent single-row prediction
//! requests into one federated forward pass per batch, amortizing the
//! per-pass Paillier work and round trips across every rider (see
//! `docs/SERVING.md` for the architecture and the equivalence
//! contract; the `serve_gateway` workload of `bench/` measures it).
//!
//! ```text
//!  clients            Party B (host)                  Party A (guest)
//!  ───────            ──────────────                  ───────────────
//!  predict(row) ──┐
//!  predict(row) ──┼─▶ queue ─▶ coalesce ≤ max_batch
//!  predict(row) ──┘      │
//!                        ▼
//!                 Support(rows)  ────────────────▶  select(rows)
//!                 forward (B half)  ◀── protocol ──▶  forward (A half)
//!                        │
//!                 logits per rider ──▶ reply with latency + batch size
//! ```
//!
//! The wire protocol needs **no new frame kinds**: a request batch is
//! one [`Msg::Support`] carrying the PSI-aligned row indices (both
//! parties index their local feature store with them), followed by the
//! source layers' ordinary forward-pass messages; a [`Msg::U64`]
//! sentinel ([`SERVE_SHUTDOWN`]) ends the serve session.
//!
//! Every link streams ([`bf_mpc::transport`]), so a micro-batch costs
//! the protocol's two one-way latencies — `Support` + `⟦X_B V_B − ε⟧`
//! to A, then `⟦X_A V_A − ε⟧` + `Z'_A` to B — on a reconnecting TCP
//! link too. The loop bodies are written once per side (`serve_guest`,
//! `serve_host`); the model families differ only in the per-batch
//! forward they pass in (the tree family's is in [`crate::trees`]).
//!
//! **Equivalence contract**: a served prediction is bit-identical to
//! the in-process prediction forward pass
//! ([`PartyBModel::predict_batch`]) on the same rows under the same
//! session state and batch partition — serving changes *where* the
//! forward runs, never its bytes (`tests/serving_parity.rs` enforces
//! this for 2-party and multi-guest, Plain and Paillier, both
//! transports).

use std::sync::mpsc as std_mpsc;
use std::sync::mpsc::{Receiver, SyncSender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bf_ml::data::Dataset;
use bf_mpc::transport::{Msg, TransportError, TransportResult};
use bf_tensor::Dense;

use crate::models::{PartyAModel, PartyBModel};
use crate::session::Session;

/// The `U64` sentinel Party B sends on every link to end a serve
/// session (any other `U64` in serve mode is a protocol fault).
pub const SERVE_SHUTDOWN: u64 = 0x5E12_FD0E;

/// Micro-batching options for the Party B serving loop.
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Most riders coalesced into one federated forward pass. `1`
    /// degenerates to sequential single-row serving (the bench
    /// baseline).
    pub max_batch: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig { max_batch: 32 }
    }
}

/// Why a prediction request failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServeError {
    /// The server is gone (loop exited or transport failed) — the
    /// request will never be answered.
    Closed,
    /// The requested row does not exist in the serving feature store.
    BadRow {
        /// The requested row index.
        row: usize,
        /// The store's row count.
        rows: usize,
    },
    /// The queue is full right now — admission control turned the
    /// request away instead of blocking the caller
    /// ([`PredictClient::try_submit`]).
    Overloaded,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Closed => write!(f, "prediction server is gone"),
            ServeError::BadRow { row, rows } => {
                write!(f, "row {row} out of range for a {rows}-row feature store")
            }
            ServeError::Overloaded => write!(f, "prediction queue is full"),
        }
    }
}

impl std::error::Error for ServeError {}

/// One answered prediction.
#[derive(Clone, Debug)]
pub struct Prediction {
    /// The model's logits row for the requested instance.
    pub logits: Vec<f64>,
    /// Enqueue-to-reply latency of this request.
    pub latency: Duration,
    /// How many riders shared this request's federated forward pass.
    pub batch_rows: usize,
}

/// An in-flight prediction request.
struct Request {
    row: usize,
    enqueued: Instant,
    reply: std_mpsc::SyncSender<Result<Prediction, ServeError>>,
}

/// A client handle onto a serving queue. Cheap to clone; one handle
/// per client thread is the intended shape. The serving loop exits
/// (and shuts the guests down) once every client handle is dropped
/// and the queue has drained.
#[derive(Clone)]
pub struct PredictClient {
    tx: SyncSender<Request>,
}

/// A submitted request whose reply can be awaited later —
/// [`PredictClient::submit`] + [`PendingPrediction::wait`] is the
/// asynchronous form of [`PredictClient::predict`].
pub struct PendingPrediction {
    rx: std_mpsc::Receiver<Result<Prediction, ServeError>>,
}

impl PendingPrediction {
    /// Block until the server answers (or dies).
    pub fn wait(self) -> Result<Prediction, ServeError> {
        self.rx.recv().map_err(|_| ServeError::Closed)?
    }

    /// Poll for the answer without blocking: `None` while the request
    /// is still in flight, `Some` once answered (or once the server
    /// is known dead). The nonblocking form the gateway's event loop
    /// uses.
    pub fn try_wait(&self) -> Option<Result<Prediction, ServeError>> {
        match self.rx.try_recv() {
            Ok(r) => Some(r),
            Err(std_mpsc::TryRecvError::Empty) => None,
            Err(std_mpsc::TryRecvError::Disconnected) => Some(Err(ServeError::Closed)),
        }
    }
}

impl PredictClient {
    /// Enqueue a prediction request for `row` of the serving store
    /// without waiting for the answer.
    pub fn submit(&self, row: usize) -> Result<PendingPrediction, ServeError> {
        let (reply, rx) = std_mpsc::sync_channel(1);
        self.tx
            .send(Request {
                row,
                enqueued: Instant::now(),
                reply,
            })
            .map_err(|_| ServeError::Closed)?;
        Ok(PendingPrediction { rx })
    }

    /// Enqueue a prediction request without blocking: a full queue
    /// answers [`ServeError::Overloaded`] immediately instead of
    /// parking the caller. Admission control for the gateway's event
    /// loop, which must never block on a shard.
    pub fn try_submit(&self, row: usize) -> Result<PendingPrediction, ServeError> {
        let (reply, rx) = std_mpsc::sync_channel(1);
        match self.tx.try_send(Request {
            row,
            enqueued: Instant::now(),
            reply,
        }) {
            Ok(()) => Ok(PendingPrediction { rx }),
            Err(std_mpsc::TrySendError::Full(_)) => Err(ServeError::Overloaded),
            Err(std_mpsc::TrySendError::Disconnected(_)) => Err(ServeError::Closed),
        }
    }

    /// Request a prediction for `row` and block until it is answered —
    /// the closed-loop client call the bench drives from many threads.
    pub fn predict(&self, row: usize) -> Result<Prediction, ServeError> {
        self.submit(row)?.wait()
    }
}

/// The server side of a serving queue (consumed by
/// [`serve_party_b`]).
pub struct RequestQueue {
    rx: Receiver<Request>,
}

/// Create a serving queue of the given capacity: the client half
/// (clonable, one per client thread) and the server half. Submissions
/// beyond `capacity` block — backpressure, bounding server memory.
pub fn queue(capacity: usize) -> (PredictClient, RequestQueue) {
    let (tx, rx) = std_mpsc::sync_channel(capacity.max(1));
    (PredictClient { tx }, RequestQueue { rx })
}

/// What a Party B serving loop produces: request/batch counts plus
/// per-request latency and per-batch traffic accounting.
#[derive(Debug, Default)]
pub struct ServeReport {
    /// Requests answered (excluding bad-row rejections).
    pub requests: u64,
    /// Requests rejected before any federated work (bad rows). Every
    /// submission is accounted: `requests + rejected` equals the
    /// number of requests the loop drained.
    pub rejected: u64,
    /// Federated forward passes executed.
    pub batches: u64,
    /// Bytes this party sent during the serve phase only (B→A, summed
    /// across links in the multi-guest case) — counters are
    /// snapshotted at serve entry, so training traffic on a reused
    /// session never pollutes the serve report.
    pub bytes_sent: u64,
    /// Wall-clock duration of the serve loop in seconds (first drain
    /// to queue exhaustion), the denominator of
    /// [`ServeReport::sustained_qps`].
    pub wall_secs: f64,
    /// Enqueue-to-reply latency of every answered request, in seconds,
    /// in answer order.
    pub latencies_secs: Vec<f64>,
    /// Rider count of every executed batch, in order.
    pub batch_sizes: Vec<usize>,
    /// Bytes this party sent per executed batch, in order (the
    /// per-batch traffic a rider's upload amortizes over).
    pub bytes_per_batch: Vec<u64>,
    /// The exact row partition of every executed batch, in order.
    /// This is the serving determinism contract made replayable:
    /// feeding these partitions to the direct `predict_batch` forward
    /// on an identically-seeded session reproduces every served logit
    /// bit for bit (`tests/gateway.rs` does exactly that).
    pub batch_rows: Vec<Vec<u32>>,
}

/// Ceil-based nearest-rank quantile of a sample: rank `⌈q·n⌉`
/// (clamped to `[1, n]`) of its ascending sort, i.e. the smallest
/// sample value such that at least a `q` fraction of the sample is ≤
/// it. The previous `.round()`-based index could select *below* the
/// true nearest rank (67 samples, q = 0.99: 0.99·66 = 65.34 rounds to
/// index 65 where nearest-rank is 66).
pub(crate) fn quantile_ceil(mut sample: Vec<f64>, q: f64) -> f64 {
    if sample.is_empty() {
        return 0.0;
    }
    sample.sort_by(f64::total_cmp);
    let n = sample.len();
    let rank = (q.clamp(0.0, 1.0) * n as f64).ceil() as usize;
    sample[rank.clamp(1, n) - 1]
}

impl ServeReport {
    /// Mean per-request latency in seconds (0 when nothing served).
    pub fn mean_latency_secs(&self) -> f64 {
        if self.latencies_secs.is_empty() {
            0.0
        } else {
            self.latencies_secs.iter().sum::<f64>() / self.latencies_secs.len() as f64
        }
    }

    /// The `q`-quantile (0 ≤ q ≤ 1) of per-request latency in seconds,
    /// ceil-based nearest rank (0 when nothing served).
    pub fn latency_quantile_secs(&self, q: f64) -> f64 {
        quantile_ceil(self.latencies_secs.clone(), q)
    }

    /// Largest coalesced batch (0 when nothing served).
    pub fn max_batch(&self) -> usize {
        self.batch_sizes.iter().copied().max().unwrap_or(0)
    }

    /// Median per-request latency in seconds.
    pub fn p50_latency_secs(&self) -> f64 {
        self.latency_quantile_secs(0.50)
    }

    /// 99th-percentile per-request latency in seconds.
    pub fn p99_latency_secs(&self) -> f64 {
        self.latency_quantile_secs(0.99)
    }

    /// Answered requests per wall-clock second over the serve phase
    /// (0 when nothing served).
    pub fn sustained_qps(&self) -> f64 {
        if self.wall_secs > 0.0 {
            self.requests as f64 / self.wall_secs
        } else {
            0.0
        }
    }
}

/// What a Party A serving loop produces.
#[derive(Debug)]
pub struct ServeGuestReport {
    /// Federated forward passes answered.
    pub batches: u64,
    /// Instance rows predicted across all batches.
    pub rows: u64,
    /// Bytes this party sent during the serve phase only (A→B) —
    /// snapshotted at serve entry, so training traffic on a reused
    /// session is excluded.
    pub bytes_sent: u64,
}

/// Party A's serving loop: answer federated prediction passes against
/// the local feature-store slice until the host sends
/// [`SERVE_SHUTDOWN`]. Works unchanged for two-party and multi-guest
/// serving (each guest serves its own link), over any transport, with
/// a model freshly trained or loaded via [`crate::persist`].
///
/// Out-of-range row indices and unexpected message kinds surface as
/// typed [`TransportError`]s — a guest facing a faulty host refuses
/// the request instead of panicking. A model whose ciphertext caches
/// are not under this session's peer key (another backend, key size or
/// layout) is refused with [`TransportError::Setup`] before anything
/// is sent.
pub fn serve_party_a(
    sess: &mut Session,
    model: &mut PartyAModel,
    store: &Dataset,
) -> TransportResult<ServeGuestReport> {
    model.check_caches(sess)?;
    serve_guest(sess, |sess, rows| {
        let idx = check_rows(rows, store.rows())?;
        model.predict_batch(sess, &store.select(&idx))
    })
}

/// The guest serve loop of every model family: answer each `Support`
/// row batch with `answer` until the host's [`SERVE_SHUTDOWN`].
pub(crate) fn serve_guest(
    sess: &mut Session,
    mut answer: impl FnMut(&mut Session, &[u32]) -> TransportResult<()>,
) -> TransportResult<ServeGuestReport> {
    // Serve-phase traffic only: a session that trained first must not
    // leak its training bytes into the serve report.
    let bytes_base = sess.ep.stats().bytes();
    let mut batches = 0u64;
    let mut rows_served = 0u64;
    loop {
        match sess.ep.recv()? {
            Msg::Support(rows) => {
                answer(sess, &rows)?;
                batches += 1;
                rows_served += rows.len() as u64;
            }
            Msg::U64(v) if v == SERVE_SHUTDOWN => break,
            Msg::U64(v) => {
                return Err(TransportError::Setup(format!(
                    "unexpected U64 {v:#x} in serve mode (not the shutdown sentinel)"
                )))
            }
            other => {
                return Err(TransportError::TypeMismatch {
                    expected: "Support",
                    got: other.kind(),
                })
            }
        }
    }
    Ok(ServeGuestReport {
        batches,
        rows: rows_served,
        bytes_sent: sess.ep.stats().bytes() - bytes_base,
    })
}

/// Validate row indices a peer named (a request batch, a tree node)
/// against the store size: one past it is a [`TransportError::Setup`].
pub(crate) fn check_rows(rows: &[u32], store_rows: usize) -> TransportResult<Vec<usize>> {
    rows.iter()
        .map(|&r| {
            let i = r as usize;
            if i < store_rows {
                Ok(i)
            } else {
                Err(TransportError::Setup(format!(
                    "the peer named row {i} of a {store_rows}-row store"
                )))
            }
        })
        .collect()
}

/// Party B's serving loop over its guest links (`&mut sess` for one
/// guest, `&mut sessions` for `M`): drain the request queue, coalescing
/// up to [`ServeConfig::max_batch`] concurrent requests per federated
/// forward pass, until every [`PredictClient`] is dropped and the queue
/// is empty; then shut the guests down. Each batch's row indices are
/// broadcast to every link before the forward pass; each guest runs
/// [`serve_party_a`].
///
/// Bad-row requests are rejected to their own caller
/// ([`ServeError::BadRow`]) without disturbing the batch they arrived
/// in; a transport failure aborts the loop with the error (pending
/// callers observe [`ServeError::Closed`]) — but the shutdown
/// sentinel is still sent best-effort on every link, so a surviving
/// guest's serve loop can exit instead of blocking in `recv()` forever.
/// A model whose ciphertext caches do not fit its links (as in
/// [`serve_party_a`]) is refused with [`TransportError::Setup`] before
/// anything is sent.
pub fn serve_party_b<L: AsMut<[Session]> + ?Sized>(
    links: &mut L,
    model: &mut PartyBModel,
    store: &Dataset,
    cfg: &ServeConfig,
    queue: RequestQueue,
) -> TransportResult<ServeReport> {
    model.check_caches(links.as_mut())?;
    serve_host(links.as_mut(), store.rows(), cfg, queue, |links, rows| {
        for sess in links.iter() {
            sess.ep.send(Msg::Support(rows.to_vec()))?;
        }
        let idx: Vec<usize> = rows.iter().map(|&r| r as usize).collect();
        model.predict_batch(links, &store.select(&idx))
    })
}

/// The host serve loop of every model family: drain `queue` through
/// [`run_server_loop`] with `forward` as the per-batch federated
/// forward (it broadcasts the batch's rows itself), then send
/// [`SERVE_SHUTDOWN`] on every link — best-effort when the loop
/// failed. Reports serve-phase bytes only, summed across links.
pub(crate) fn serve_host(
    links: &mut [Session],
    store_rows: usize,
    cfg: &ServeConfig,
    queue: RequestQueue,
    mut forward: impl FnMut(&mut [Session], &[u32]) -> TransportResult<Dense>,
) -> TransportResult<ServeReport> {
    if links.is_empty() {
        return Err(TransportError::Setup(
            "a serve host needs at least one guest session (M = 0)".into(),
        ));
    }
    let stats: Vec<_> = links.iter().map(|s| Arc::clone(s.ep.stats())).collect();
    // Serve-phase traffic only (see `ServeReport::bytes_sent`), summed
    // across links.
    let bytes_base: u64 = stats.iter().map(|s| s.bytes()).sum();
    let loop_result = run_server_loop(
        cfg,
        store_rows,
        queue,
        &mut || stats.iter().map(|s| s.bytes()).sum::<u64>() - bytes_base,
        &mut |rows| forward(links, rows),
    );
    let mut report = match loop_result {
        Ok(r) => r,
        Err(e) => {
            // The forward failed mid-protocol; a guest may still be
            // healthy and parked in `recv()`. Best-effort shutdown on
            // every link so it exits (a dead link just errors again,
            // which we ignore); its own error, if any, wins.
            for sess in links.iter() {
                let _ = sess.ep.send(Msg::U64(SERVE_SHUTDOWN));
            }
            return Err(e);
        }
    };
    for sess in links.iter() {
        sess.ep.send(Msg::U64(SERVE_SHUTDOWN))?;
    }
    report.bytes_sent = stats.iter().map(|s| s.bytes()).sum::<u64>() - bytes_base;
    Ok(report)
}

/// The shared micro-batching drain: recv one request (blocking), ride
/// up to `max_batch − 1` more already-queued requests on the same
/// pass, predict, reply. `predict_rows` runs the federated forward
/// for one coalesced batch; `bytes_now` samples this party's sent-byte
/// counter for the per-batch traffic attribution.
fn run_server_loop(
    cfg: &ServeConfig,
    store_rows: usize,
    queue: RequestQueue,
    bytes_now: &mut dyn FnMut() -> u64,
    predict_rows: &mut dyn FnMut(&[u32]) -> TransportResult<Dense>,
) -> TransportResult<ServeReport> {
    let mut report = ServeReport {
        requests: 0,
        rejected: 0,
        batches: 0,
        bytes_sent: 0,
        wall_secs: 0.0,
        latencies_secs: Vec::new(),
        batch_sizes: Vec::new(),
        bytes_per_batch: Vec::new(),
        batch_rows: Vec::new(),
    };
    let started = Instant::now();
    let max_batch = cfg.max_batch.max(1);
    loop {
        // Block for the first rider; every request already queued
        // behind it rides the same federated pass.
        let first = match queue.rx.recv() {
            Ok(r) => r,
            Err(_) => break, // every client handle dropped, queue drained
        };
        let mut pending = vec![first];
        while pending.len() < max_batch {
            match queue.rx.try_recv() {
                Ok(r) => pending.push(r),
                Err(_) => break,
            }
        }
        // Reject bad rows to their own callers; the rest still ride.
        // Row indices travel as u32 (the `Support` wire payload), so a
        // row that would truncate is as bad as one past the store —
        // serving the wrong row silently is the one unacceptable
        // outcome.
        let mut riders = Vec::with_capacity(pending.len());
        for req in pending {
            if req.row < store_rows && u32::try_from(req.row).is_ok() {
                riders.push(req);
            } else {
                report.rejected += 1;
                let _ = req.reply.send(Err(ServeError::BadRow {
                    row: req.row,
                    rows: store_rows,
                }));
            }
        }
        if riders.is_empty() {
            continue;
        }
        let rows: Vec<u32> = riders.iter().map(|r| r.row as u32).collect();
        let bytes_before = bytes_now();
        let logits = predict_rows(&rows)?;
        let batch_bytes = bytes_now() - bytes_before;
        let answered = Instant::now();
        for (k, req) in riders.iter().enumerate() {
            // A rider that gave up waiting is fine to skip.
            let _ = req.reply.send(Ok(Prediction {
                logits: logits.row(k).to_vec(),
                latency: answered.duration_since(req.enqueued),
                batch_rows: rows.len(),
            }));
            report
                .latencies_secs
                .push(answered.duration_since(req.enqueued).as_secs_f64());
        }
        report.requests += rows.len() as u64;
        report.batches += 1;
        report.batch_sizes.push(rows.len());
        report.bytes_per_batch.push(batch_bytes);
        report.batch_rows.push(rows);
    }
    report.wall_secs = started.elapsed().as_secs_f64();
    report.bytes_sent = bytes_now();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FedConfig;

    /// Regression for the `.round()` nearest-rank bug: with 67 samples
    /// the old index `round(0.99·66) = 65` under-selects; ceil-based
    /// nearest rank is `⌈0.99·67⌉ = 67`, i.e. the maximum. The two
    /// definitions disagree on this vector, so this test fails against
    /// the old implementation.
    #[test]
    fn quantile_uses_ceil_nearest_rank() {
        let report = ServeReport {
            latencies_secs: (1..=67).map(|i| i as f64).collect(),
            ..Default::default()
        };
        let old_round_answer = 66.0; // sorted[round(0.99 * 66)] = sorted[65]
        assert_eq!(report.latency_quantile_secs(0.99), 67.0);
        assert_ne!(report.latency_quantile_secs(0.99), old_round_answer);
        // Boundary ranks: q=0 is the minimum, q=1 the maximum, and the
        // median of an even-length sample is the lower-middle value.
        assert_eq!(report.latency_quantile_secs(0.0), 1.0);
        assert_eq!(report.latency_quantile_secs(1.0), 67.0);
        let even = ServeReport {
            latencies_secs: vec![4.0, 2.0, 3.0, 1.0],
            ..Default::default()
        };
        assert_eq!(even.latency_quantile_secs(0.5), 2.0);
    }

    /// A zero-request report answers 0 for every quantile, no panic.
    #[test]
    fn empty_report_quantiles_are_zero() {
        let report = ServeReport::default();
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(report.latency_quantile_secs(q), 0.0);
        }
        assert_eq!(report.mean_latency_secs(), 0.0);
    }
    use crate::models::FedSpec;
    use crate::session::run_pair;
    use bf_ml::data::Labels;
    use bf_tensor::Features;
    use rand::SeedableRng;

    fn toy_data(rows: usize, dim: usize, seed: u64, labelled: bool) -> Dataset {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let num = bf_tensor::init::uniform(&mut rng, rows, dim, 1.0);
        let labels = labelled.then(|| Labels::Binary((0..rows).map(|r| (r % 2) as f64).collect()));
        Dataset {
            num: Some(Features::Dense(num)),
            cat: None,
            labels,
        }
    }

    /// Serve `n` pre-enqueued requests end to end over the in-process
    /// pair; returns (report, per-request logits).
    fn serve_n(
        cfg: &FedConfig,
        max_batch: usize,
        n: usize,
        extra_bad_row: bool,
    ) -> (ServeReport, Vec<Vec<f64>>) {
        let store_a = toy_data(n, 3, 1, false);
        let store_b = toy_data(n, 4, 2, true);
        let spec = FedSpec::Glm { out: 1 };
        let (_, out) = run_pair(
            cfg,
            5,
            {
                let store_a = store_a.clone();
                let spec = spec.clone();
                move |mut sess| {
                    let mut model = PartyAModel::init(&mut sess, &spec, &store_a).unwrap();
                    serve_party_a(&mut sess, &mut model, &store_a).unwrap()
                }
            },
            move |mut sess| {
                let mut model = PartyBModel::init(&mut sess, &spec, &store_b).unwrap();
                let (client, q) = queue(n + 1);
                let mut pending: Vec<_> = (0..n).map(|r| client.submit(r).unwrap()).collect();
                let bad = extra_bad_row.then(|| client.submit(n + 7).unwrap());
                drop(client);
                let report = serve_party_b(
                    &mut sess,
                    &mut model,
                    &store_b,
                    &ServeConfig { max_batch },
                    q,
                )
                .unwrap();
                if let Some(b) = bad {
                    assert_eq!(
                        b.wait().unwrap_err(),
                        ServeError::BadRow {
                            row: n + 7,
                            rows: n
                        }
                    );
                }
                let logits: Vec<Vec<f64>> = pending
                    .drain(..)
                    .map(|p| p.wait().unwrap().logits)
                    .collect();
                (report, logits)
            },
        );
        out
    }

    #[test]
    fn preenqueued_requests_coalesce_deterministically() {
        let (report, logits) = serve_n(&FedConfig::plain(), 4, 8, false);
        assert_eq!(report.requests, 8);
        assert_eq!(report.rejected, 0);
        assert_eq!(report.batches, 2);
        assert_eq!(report.batch_sizes, vec![4, 4]);
        assert_eq!(
            report.batch_rows,
            vec![vec![0, 1, 2, 3], vec![4, 5, 6, 7]],
            "batch partitions are recorded for replay"
        );
        assert_eq!(report.latencies_secs.len(), 8);
        assert_eq!(report.bytes_per_batch.len(), 2);
        assert!(report.bytes_per_batch.iter().all(|&b| b > 0));
        assert_eq!(logits.len(), 8);
        assert!(logits.iter().all(|l| l.len() == 1 && l[0].is_finite()));
        assert!(report.max_batch() == 4);
        assert!(report.mean_latency_secs() > 0.0);
        assert!(report.latency_quantile_secs(0.95) >= report.latency_quantile_secs(0.0));
        assert!(report.p99_latency_secs() >= report.p50_latency_secs());
        assert!(report.wall_secs > 0.0);
        assert!(report.sustained_qps() > 0.0);
    }

    #[test]
    fn single_row_serving_answers_every_request() {
        let (report, logits) = serve_n(&FedConfig::plain(), 1, 5, false);
        assert_eq!(report.batches, 5);
        assert_eq!(report.batch_sizes, vec![1; 5]);
        assert_eq!(logits.len(), 5);
    }

    #[test]
    fn bad_rows_are_rejected_without_killing_the_batch() {
        let (report, logits) = serve_n(&FedConfig::plain(), 16, 6, true);
        // The bad row was rejected to its caller; the 6 good riders
        // were all answered — and the rejection is accounted, so
        // requests + rejected equals the 7 submissions.
        assert_eq!(report.requests, 6);
        assert_eq!(report.rejected, 1);
        assert_eq!(report.requests + report.rejected, 7);
        assert_eq!(logits.len(), 6);
    }

    /// Serve `n` pre-enqueued requests after `train_batches` training
    /// steps on the same session; returns (guest, host) serve-phase
    /// bytes_sent.
    fn serve_bytes_after_training(train_batches: usize) -> (u64, u64) {
        let n = 6;
        let store_a = toy_data(n, 3, 11, false);
        let store_b = toy_data(n, 4, 12, true);
        let spec = FedSpec::Glm { out: 1 };
        let all_rows: Vec<usize> = (0..n).collect();
        run_pair(
            &FedConfig::plain(),
            21,
            {
                let store_a = store_a.clone();
                let spec = spec.clone();
                let all_rows = all_rows.clone();
                move |mut sess| {
                    let mut model = PartyAModel::init(&mut sess, &spec, &store_a).unwrap();
                    let batch = store_a.select(&all_rows);
                    for _ in 0..train_batches {
                        model.forward(&mut sess, &batch, true).unwrap();
                        model.backward(&mut sess).unwrap();
                    }
                    serve_party_a(&mut sess, &mut model, &store_a)
                        .unwrap()
                        .bytes_sent
                }
            },
            move |mut sess| {
                let mut model = PartyBModel::init(&mut sess, &spec, &store_b).unwrap();
                let batch = store_b.select(&all_rows);
                for _ in 0..train_batches {
                    model.train_batch(&mut sess, &batch).unwrap();
                }
                let (client, q) = queue(n + 1);
                let pending: Vec<_> = (0..n).map(|r| client.submit(r).unwrap()).collect();
                drop(client);
                let report = serve_party_b(
                    &mut sess,
                    &mut model,
                    &store_b,
                    &ServeConfig { max_batch: 4 },
                    q,
                )
                .unwrap();
                for p in pending {
                    p.wait().unwrap();
                }
                report.bytes_sent
            },
        )
    }

    #[test]
    fn serve_bytes_exclude_training_traffic() {
        // Serve-phase byte counts depend only on message shapes, so a
        // session that trained first must report the same serve bytes
        // as a fresh session serving the identical request sequence —
        // the old lifetime-total accounting folded every training
        // byte in.
        let fresh = serve_bytes_after_training(0);
        let trained = serve_bytes_after_training(2);
        assert!(fresh.0 > 0 && fresh.1 > 0);
        assert_eq!(
            fresh, trained,
            "training traffic leaked into the serve-phase byte report"
        );
    }

    #[test]
    fn host_failure_still_shuts_down_surviving_guests() {
        // M = 2: guest 0 dies after model init; the host's first
        // broadcast fails on link 0 and must still send the shutdown
        // sentinel to guest 1, whose serve loop would otherwise block
        // in recv() forever (this test hangs on the old code).
        let rows = 4;
        let cfg = FedConfig::plain();
        let spec = FedSpec::Glm { out: 1 };
        let store_b = toy_data(rows, 3, 75, true);
        let (drop_tx, drop_rx) = std_mpsc::channel();
        let (reports, ()) = crate::multiparty::run_star(
            &cfg,
            80,
            vec![0usize, 1],
            |i, mut sess| {
                let store = toy_data(rows, 2 + i, 70 + i as u64, false);
                let mut model = PartyAModel::init(&mut sess, &spec, &store).unwrap();
                if i == 0 {
                    drop(sess);
                    drop_tx.send(()).unwrap();
                    None
                } else {
                    Some(serve_party_a(&mut sess, &mut model, &store).unwrap())
                }
            },
            |mut sessions| {
                let mut model = PartyBModel::init(&mut sessions, &spec, &store_b).unwrap();
                drop_rx.recv().unwrap();
                let (client, q) = queue(2);
                let pending = client.submit(0).unwrap();
                drop(client);
                let err = serve_party_b(
                    &mut sessions,
                    &mut model,
                    &store_b,
                    &ServeConfig::default(),
                    q,
                )
                .unwrap_err();
                assert!(matches!(err, TransportError::Disconnected));
                assert_eq!(pending.wait().unwrap_err(), ServeError::Closed);
            },
        );
        assert!(reports[0].is_none());
        let survivor = reports[1].as_ref().expect("guest 1 served");
        assert_eq!(survivor.batches, 0, "no batch ever completed");
    }

    #[test]
    fn try_submit_applies_backpressure_and_try_wait_polls() {
        let (client, q) = queue(2);
        let a = client.try_submit(0).unwrap();
        let _b = client.try_submit(1).unwrap();
        // Queue capacity 2 is exhausted: admission control rejects
        // instead of blocking.
        assert!(matches!(client.try_submit(2), Err(ServeError::Overloaded)));
        assert!(a.try_wait().is_none(), "still in flight");
        drop(q);
        assert_eq!(a.try_wait().unwrap().unwrap_err(), ServeError::Closed);
    }

    #[test]
    fn guest_refuses_out_of_range_rows_and_bad_sentinels() {
        let cfg = FedConfig::plain();
        let store_a = toy_data(4, 3, 3, false);
        let spec = FedSpec::Glm { out: 1 };
        let (guest_err, _) = run_pair(
            &cfg,
            9,
            {
                let store_a = store_a.clone();
                move |mut sess| {
                    let mut model = PartyAModel::init(&mut sess, &spec, &store_a).unwrap();
                    serve_party_a(&mut sess, &mut model, &store_a).unwrap_err()
                }
            },
            |sess| {
                // Mirror the guest's init without building a model: the
                // MatMul init handshake is one U64 + one Ct exchange.
                sess.ep.send(Msg::U64(3)).unwrap();
                let _ = sess.ep.recv_u64().unwrap();
                let v = bf_tensor::Dense::zeros(3, 1);
                sess.ep
                    .send(Msg::Ct(sess.own_pk.encrypt(&v, &sess.obf)))
                    .unwrap();
                let _ = sess.ep.recv_ct().unwrap();
                // Out-of-range row: the guest must refuse with Setup.
                sess.ep.send(Msg::Support(vec![99])).unwrap();
            },
        );
        assert!(matches!(guest_err, TransportError::Setup(_)));
    }

    #[test]
    fn client_observes_closed_when_server_never_runs() {
        let (client, q) = queue(4);
        let pending = client.submit(0).unwrap();
        drop(q);
        assert_eq!(pending.wait().unwrap_err(), ServeError::Closed);
        assert!(matches!(client.submit(1), Err(ServeError::Closed)));
    }
}
